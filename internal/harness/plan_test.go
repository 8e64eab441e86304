package harness

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryPlannedPointIsValid checks the whole evaluation plan — every
// point of every registry entry and every claim, at quick and at full scale
// — without running any of it.
func TestEveryPlannedPointIsValid(t *testing.T) {
	check := func(o Opts, where string, ps []point) {
		for i, p := range ps {
			cfg := o.env(p)
			fail := func(format string, args ...any) {
				t.Helper()
				t.Errorf("%s (quick=%v) point %d: "+format, append([]any{where, o.Quick, i}, args...)...)
			}
			if cfg.DBBytes <= 0 {
				fail("database of %g GB scales to %d bytes", p.db, cfg.DBBytes)
			}
			if cfg.DRAMBytes <= 0 && cfg.NVMBytes <= 0 {
				fail("no buffer tier")
			}
			// A size written as 0 means the tier is absent, not tiny.
			for _, tier := range []struct {
				name  string
				gb    float64
				bytes int64
			}{{"DRAM", p.dram, cfg.DRAMBytes}, {"NVM", p.nvm, cfg.NVMBytes}, {"memory-mode DRAM", p.memMode, cfg.MemoryModeDRAM}} {
				if (tier.gb == 0) != (tier.bytes == 0) {
					fail("%s written as %g GB scales to %d bytes", tier.name, tier.gb, tier.bytes)
				}
			}
			if cfg.MiniPages && !cfg.FineGrained {
				fail("mini pages without fine-grained loading")
			}
			if err := cfg.Policy.Validate(); err != nil {
				fail("policy: %v", err)
			}
			if p.workers < 1 {
				fail("%d workers", p.workers)
			}
			if p.ops < 1 {
				fail("%d measured operations", p.ops)
			}
			if p.tune != nil && p.tune.epochs < 1 {
				fail("tuned for %d epochs", p.tune.epochs)
			}
		}
	}
	for _, o := range []Opts{{Quick: true}, {}} {
		for _, e := range Experiments() {
			points := 0
			for _, s := range e.tables(o) {
				for _, g := range s.groups {
					check(o, s.id, g.points)
					points += len(g.points)
				}
			}
			if points == 0 && e.Name != "table1" { // table1 prints constants
				t.Errorf("experiment %s measures nothing", e.Name)
			}
		}
		for _, c := range Claims() {
			ps := c.points(o)
			if len(ps) == 0 {
				t.Errorf("claim %s measures nothing", c.ID)
			}
			check(o, c.ID, ps)
		}
	}

	// The plan is the whole evaluation only if nothing builds an Env behind
	// its back: measure is the one non-test function that calls NewEnv.
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var callers []string
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "NewEnv" {
						callers = append(callers, fn.Name.Name)
					}
				}
				return true
			})
		}
	}
	if len(callers) != 1 || callers[0] != "measure" {
		t.Errorf("NewEnv is called from %v; only measure may build an Env", callers)
	}
}
