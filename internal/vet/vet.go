// Package vet implements spitfire-vet, a static-analysis suite for the
// invariants the Go compiler cannot see but this codebase's correctness
// rests on (DESIGN.md §6d):
//
//   - determinism: no wall-clock or global-RNG use inside the simulation
//     packages — simulated time (internal/vclock) and seeded per-worker RNGs
//     are what make experiment results reproducible.
//   - droppederr: no discarded error results from the fault-injected I/O
//     layers (internal/device, internal/wal, internal/core) — the failure
//     mode the retry/degradation hardening exists to prevent.
//   - latchorder: every latch taken through a lockcheck shim obeys
//     lockcheck.Violation — the rules the -tags lockcheck runtime checker
//     enforces — with each shim's rank read from its lockcheck call; no
//     shim's mutex is locked anywhere but in a shim, and no device/vclock
//     call happens while a descriptor's mu is held.
//   - obsguard: calls into the observability layer (*obs.Obs, *obs.Ring,
//     *metrics.Histogram) dominated by a nil check, protecting the ~92 ns
//     disabled fast path.
//   - allowlive: every //vet:allow reason names a symbol declared in its
//     package, so suppression justifications rot visibly when the code
//     they cite is renamed or removed.
//
// latchorder and obsguard share one flow walker (flow.go) that follows
// each function body branch by branch. The implementation uses only the
// standard library (go/parser, go/ast, go/types and the stdlib source
// importer) — no golang.org/x/tools — per the repo's stdlib-only rule.
// Findings are keyed "file:line: [check-id]" and can be suppressed inline
// with
//
//	//vet:allow <check-id> <reason>
//
// placed on the offending line or on the line directly above it.
package vet

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Finding is one analyzer hit.
type Finding struct {
	Pos   token.Position
	Check string
	Msg   string
}

// String renders the canonical "file:line: [check-id] message" form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Check, f.Msg)
}

// AllChecks lists the check identifiers in their documented order.
var AllChecks = []string{"determinism", "droppederr", "latchorder", "obsguard", "allowlive"}

// What each check covers, by import path: a suffix match for packages and
// types, a substring match for scopes, so a module that mirrors this one's
// layout (the fixture module's fix/internal/device, …) is covered alike.
const (
	// simScope holds the simulated packages, where determinism and
	// obsguard apply.
	simScope = "/internal/"
	// lockcheckPackage's Acquire, Acquired and Release make a function
	// that calls them a latch shim.
	lockcheckPackage = "internal/lockcheck"
)

var (
	// errPackages' error results must never be discarded.
	errPackages = []string{"internal/device", "internal/wal", "internal/core"}
	// obsTypes' method calls must be nil-guarded.
	obsTypes = []string{"internal/obs.Obs", "internal/obs.Ring", "internal/metrics.Histogram"}
	// ioPackages are the device I/O and simulated-clock surface that
	// latchorder keeps out from under mu.
	ioPackages = []string{"internal/device", "internal/ssd", "internal/pmem", "internal/vclock", "internal/wal"}
)

// Config configures a vet run. The zero value (plus Dir) analyzes every
// non-test package under Dir with every check.
type Config struct {
	// Dir is the module root (or, for fixture runs, a bare package
	// directory with no go.mod). Defaults to ".".
	Dir string

	// Patterns selects what to analyze: "./..." (default), "sub/dir/...",
	// or plain package directories relative to Dir.
	Patterns []string

	// Checks restricts the run to a subset of AllChecks. Empty = all.
	Checks []string

	// IncludeTests also analyzes _test.go files (off by default: tests
	// legitimately use wall-clock deadlines and discard cleanup errors).
	IncludeTests bool

	// Warn receives non-fatal loader diagnostics (type-check hiccups in
	// packages the source importer could not fully resolve). Nil discards.
	Warn func(format string, args ...any)
}

func (cfg *Config) withDefaults() *Config {
	c := *cfg
	if c.Dir == "" {
		c.Dir = "."
	}
	if len(c.Patterns) == 0 {
		c.Patterns = []string{"./..."}
	}
	if len(c.Checks) == 0 {
		c.Checks = AllChecks
	}
	if c.Warn == nil {
		c.Warn = func(string, ...any) {}
	}
	return &c
}

func (cfg *Config) wants(check string) bool {
	for _, c := range cfg.Checks {
		if c == check {
			return true
		}
	}
	return false
}

// pkgUnit is one parsed-and-typed package.
type pkgUnit struct {
	dir     string
	path    string // import path (module-relative for module packages)
	files   []*ast.File
	pkg     *types.Package
	info    *types.Info
	imports []string // module-internal imports
	dep     bool     // loaded only to type-check an importer
}

// pass is the per-package context handed to each check.
type pass struct {
	cfg    *Config
	fset   *token.FileSet
	unit   *pkgUnit
	report func(pos token.Pos, check, format string, args ...any)
}

// Run loads the packages selected by cfg and applies the enabled checks,
// returning findings sorted by position with //vet:allow suppressions
// already filtered out.
func Run(cfg Config) ([]Finding, error) {
	c := cfg.withDefaults()
	fset := token.NewFileSet()
	units, err := load(c, fset)
	if err != nil {
		return nil, err
	}

	var findings []Finding
	var analyzed []*pkgUnit
	for _, u := range units {
		if u.dep {
			continue
		}
		analyzed = append(analyzed, u)
		p := &pass{
			cfg:  c,
			fset: fset,
			unit: u,
			report: func(pos token.Pos, check, format string, args ...any) {
				findings = append(findings, Finding{
					Pos:   fset.Position(pos),
					Check: check,
					Msg:   fmt.Sprintf(format, args...),
				})
			},
		}
		if c.wants("determinism") {
			checkDeterminism(p)
		}
		if c.wants("droppederr") {
			checkDroppedErr(p)
		}
		if c.wants("latchorder") {
			checkLatchOrder(p)
		}
		if c.wants("obsguard") {
			checkObsGuard(p)
		}
		if c.wants("allowlive") {
			checkAllowLive(p)
		}
	}

	findings = applyAllows(fset, analyzed, findings)
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Check < b.Check
	})
	return findings, nil
}

// modulePath reads the module declaration from dir/go.mod, or "" when the
// directory is not a module root (fixture mode).
func modulePath(dir string) string {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// load parses and type-checks the selected packages, and the module
// packages they import, in dependency order.
func load(cfg *Config, fset *token.FileSet) ([]*pkgUnit, error) {
	modPath := modulePath(cfg.Dir)

	dirs, err := expandPatterns(cfg)
	if err != nil {
		return nil, err
	}

	// The module packages the selected ones import are loaded too, so that
	// calls into them resolve (a shim's lockcheck call, a device function's
	// error result), but they are not analyzed.
	selected := len(dirs)
	queued := map[string]bool{}
	for _, dir := range dirs {
		queued[dir] = true
	}
	var units []*pkgUnit
	byPath := map[string]*pkgUnit{}
	for i := 0; i < len(dirs); i++ {
		u, err := parseDir(cfg, fset, dirs[i], modPath, cfg.IncludeTests && i < selected)
		if err != nil {
			return nil, err
		}
		if u == nil {
			continue // no buildable files
		}
		u.dep = i >= selected
		units = append(units, u)
		byPath[u.path] = u
		for _, imp := range u.imports {
			dir := filepath.Join(cfg.Dir, strings.TrimPrefix(imp, modPath))
			if !queued[dir] {
				queued[dir] = true
				dirs = append(dirs, dir)
			}
		}
	}

	order, err := topoSort(units, byPath)
	if err != nil {
		return nil, err
	}

	// The stdlib source importer resolves everything outside the module
	// (with cgo off so GOROOT packages type-check from pure-Go sources).
	build.Default.CgoEnabled = false
	src := importer.ForCompiler(fset, "source", nil)
	imp := &moduleImporter{module: byPath, fallback: src}

	for _, u := range order {
		u.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Defs:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		tc := &types.Config{
			Importer: imp,
			Error: func(err error) {
				cfg.Warn("vet: type-check %s: %v", u.path, err)
			},
		}
		pkg, _ := tc.Check(u.path, fset, u.files, u.info)
		u.pkg = pkg
	}
	return order, nil
}

// moduleImporter resolves module-internal paths from the already-checked
// set and delegates everything else to the stdlib source importer.
type moduleImporter struct {
	module   map[string]*pkgUnit
	fallback types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if u, ok := m.module[path]; ok {
		if u.pkg == nil {
			return nil, fmt.Errorf("vet: import cycle or unchecked package %q", path)
		}
		return u.pkg, nil
	}
	return m.fallback.Import(path)
}

// expandPatterns resolves cfg.Patterns to package directories.
func expandPatterns(cfg *Config) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range cfg.Patterns {
		switch {
		case pat == "./..." || pat == "...":
			if err := walkPackages(cfg.Dir, add); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			root := filepath.Join(cfg.Dir, strings.TrimSuffix(pat, "/..."))
			if err := walkPackages(root, add); err != nil {
				return nil, err
			}
		default:
			add(filepath.Join(cfg.Dir, pat))
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// walkPackages visits every directory under root that may hold a package,
// skipping testdata, VCS metadata and hidden/underscore directories.
func walkPackages(root string, add func(string)) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				add(path)
				break
			}
		}
		return nil
	})
}

// parseDir parses the buildable files of one directory, _test.go files
// only when tests is set, into a pkgUnit, or nil when nothing survives
// filtering.
func parseDir(cfg *Config, fset *token.FileSet, dir, modPath string, tests bool) (*pkgUnit, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	byName := map[string][]*ast.File{}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if !tests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		full := filepath.Join(dir, name)
		file, err := parser.ParseFile(fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("vet: %w", err)
		}
		if !buildableFile(file) {
			continue
		}
		pkgName := file.Name.Name
		if byName[pkgName] == nil {
			names = append(names, pkgName)
		}
		byName[pkgName] = append(byName[pkgName], file)
	}
	if len(byName) == 0 {
		return nil, nil
	}
	// A directory can legally mix package foo with an external foo_test;
	// with tests included, keep the largest group.
	best := names[0]
	for _, n := range names[1:] {
		if len(byName[n]) > len(byName[best]) {
			best = n
		}
	}

	importPath := filepath.Base(dir)
	if modPath != "" {
		rel, err := filepath.Rel(cfg.Dir, dir)
		if err != nil {
			return nil, err
		}
		if rel == "." {
			importPath = modPath
		} else {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
	}

	u := &pkgUnit{dir: dir, path: importPath, files: byName[best]}
	mod := modPath + "/"
	for _, f := range u.files {
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if modPath != "" && (p == modPath || strings.HasPrefix(p, mod)) {
				u.imports = append(u.imports, p)
			}
		}
	}
	return u, nil
}

// buildableFile evaluates a file's //go:build constraint for the default
// build (host GOOS/GOARCH, no extra tags — so lockcheck-tagged files are
// analyzed as the no-op stub, matching what `go build` compiles).
func buildableFile(file *ast.File) bool {
	for _, cg := range file.Comments {
		if cg.Pos() >= file.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return true
			}
			return expr.Eval(func(tag string) bool {
				return tag == runtime.GOOS || tag == runtime.GOARCH ||
					tag == "unix" || strings.HasPrefix(tag, "go1")
			})
		}
	}
	return true
}

// topoSort orders units so that every module-internal import is checked
// before its importers.
func topoSort(units []*pkgUnit, byPath map[string]*pkgUnit) ([]*pkgUnit, error) {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	state := map[*pkgUnit]int{}
	var order []*pkgUnit
	var visit func(u *pkgUnit) error
	visit = func(u *pkgUnit) error {
		switch state[u] {
		case grey:
			return fmt.Errorf("vet: import cycle through %q", u.path)
		case black:
			return nil
		}
		state[u] = grey
		for _, dep := range u.imports {
			if d, ok := byPath[dep]; ok {
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		state[u] = black
		order = append(order, u)
		return nil
	}
	for _, u := range units {
		if err := visit(u); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// pathMatches reports whether an import path ends with one of the given
// suffixes (each matched at a path-segment boundary).
func pathMatches(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}
