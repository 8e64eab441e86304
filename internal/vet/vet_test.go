package vet_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/spitfire-db/spitfire/internal/lockcheck"
	"github.com/spitfire-db/spitfire/internal/vet"
)

// fixtureConfig points the analyzers at the fixture module, whose packages
// sit where the real tree's do (fix/internal/device, fix/internal/obs, …),
// so the default scopes cover them.
func fixtureConfig(t *testing.T) vet.Config {
	t.Helper()
	return vet.Config{
		Dir: filepath.Join("testdata", "mod"),
		Warn: func(format string, args ...any) {
			t.Logf(format, args...)
		},
	}
}

// TestFixturesFireEachCheck runs the full suite over the fixture module and
// compares findings against the `// want <check>` markers in the fixtures
// (plus the implied "vet" findings at malformed //vet:allow directives).
// Exact set equality also proves that the clean code paths stay silent and
// that well-formed //vet:allow directives suppress.
func TestFixturesFireEachCheck(t *testing.T) {
	cfg := fixtureConfig(t)
	findings, err := vet.Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	got := map[string]int{}
	perCheck := map[string]int{}
	for _, f := range findings {
		got[fmt.Sprintf("%s:%d:%s", filepath.ToSlash(f.Pos.Filename), f.Pos.Line, f.Check)]++
		perCheck[f.Check]++
	}

	want, err := expectedFindings(cfg.Dir)
	if err != nil {
		t.Fatalf("scanning fixtures: %v", err)
	}

	for k, n := range want {
		if got[k] != n {
			t.Errorf("want %d finding(s) at %s, got %d", n, k, got[k])
		}
	}
	for k, n := range got {
		if want[k] != n {
			t.Errorf("unexpected finding at %s (%d)", k, n)
		}
	}

	for _, check := range vet.AllChecks {
		if perCheck[check] == 0 {
			t.Errorf("check %q produced no findings on its fixture", check)
		}
	}
}

// expectedFindings scans the fixture tree for `// want <check>` markers and
// for malformed //vet:allow directives (which must surface as check "vet").
func expectedFindings(dir string) (map[string]int, error) {
	want := map[string]int{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			lineNo := i + 1
			if idx := strings.LastIndex(line, "// want "); idx >= 0 {
				check := strings.TrimSpace(line[idx+len("// want "):])
				want[fmt.Sprintf("%s:%d:%s", filepath.ToSlash(path), lineNo, check)]++
			}
			trimmed := strings.TrimSpace(line)
			if rest, ok := strings.CutPrefix(trimmed, "//vet:allow"); ok {
				fields := strings.Fields(rest)
				if len(fields) < 2 || !knownCheck(fields[0]) {
					want[fmt.Sprintf("%s:%d:vet", filepath.ToSlash(path), lineNo)]++
				}
			}
		}
		return nil
	})
	return want, err
}

func knownCheck(id string) bool {
	for _, c := range vet.AllChecks {
		if c == id {
			return true
		}
	}
	return false
}

// TestFixtureRanksAreReal pins the fixture's lockcheck ranks to the real
// ones, so the fixture exercises the rules on the ranks the tree uses.
func TestFixtureRanksAreReal(t *testing.T) {
	fixture := rankConsts(t, filepath.Join("testdata", "mod", "internal", "lockcheck", "lockcheck.go"))
	real := rankConsts(t, filepath.Join("..", "lockcheck", "ranks.go"))
	if real["RankTxnGate"] != lockcheck.RankTxnGate {
		t.Fatalf("parsed RankTxnGate = %d, compiled %d", real["RankTxnGate"], lockcheck.RankTxnGate)
	}
	if !maps.Equal(fixture, real) {
		t.Fatalf("fixture ranks %v, real ranks %v", fixture, real)
	}
}

// rankConsts returns the integer constants named Rank* declared in a file.
func rankConsts(t *testing.T, path string) map[string]int {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ranks := map[string]int{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if !strings.HasPrefix(name.Name, "Rank") {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok {
					t.Fatalf("%s: %s is not an integer literal", path, name.Name)
				}
				n, err := strconv.Atoi(lit.Value)
				if err != nil {
					t.Fatalf("%s: %s: %v", path, name.Name, err)
				}
				ranks[name.Name] = n
			}
		}
	}
	if len(ranks) == 0 {
		t.Fatalf("%s declares no Rank constants", path)
	}
	return ranks
}

// TestCheckSubset proves -checks style filtering: with only droppederr
// enabled, the determinism fixture stays silent.
func TestCheckSubset(t *testing.T) {
	cfg := fixtureConfig(t)
	cfg.Checks = []string{"droppederr"}
	findings, err := vet.Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(findings) == 0 {
		t.Fatal("droppederr-only run found nothing")
	}
	for _, f := range findings {
		// Directive hygiene ("vet" findings) is enforced regardless of the
		// check filter; everything else must be droppederr.
		if f.Check != "droppederr" && f.Check != "vet" {
			t.Errorf("unexpected check %q in filtered run: %s", f.Check, f)
		}
	}
}

// TestFindingString pins the canonical "file:line: [check-id] msg" key.
func TestFindingString(t *testing.T) {
	f := vet.Finding{
		Pos:   token.Position{Filename: "internal/core/flush.go", Line: 205},
		Check: "latchorder",
		Msg:   "example",
	}
	want := "internal/core/flush.go:205: [latchorder] example"
	if got := f.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
