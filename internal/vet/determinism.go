package vet

import (
	"go/ast"
	"go/types"
	"strings"
)

// wallClockFuncs are the package-level time functions that read or wait on
// the host's wall clock. time.NewTicker/NewTimer are deliberately absent:
// background goroutines (the page cleaner) legitimately pace themselves on
// wall time, which cannot leak into simulated-time results.
var wallClockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
	"Sleep": true,
	"After": true,
	"Tick":  true,
}

// globalRandFuncs are the math/rand functions that draw from the shared,
// unseeded global source. Constructors (New, NewSource, NewZipf) are fine:
// the repo's convention is per-worker seeded RNGs (internal/zipf.Rand).
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Read": true,
	"Seed": true,
	// math/rand/v2 additions.
	"N": true, "IntN": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "UintN": true, "Uint64N": true,
	"Uint": true, "Uint32N": true,
}

// checkDeterminism flags wall-clock and global-RNG use inside the simulated
// packages (simScope): reproducible sweeps (§6) require every
// latency to come from internal/vclock and every coin flip from a seeded
// per-worker RNG.
func checkDeterminism(p *pass) {
	if !strings.Contains(p.unit.path, simScope) {
		return
	}
	for _, f := range p.unit.files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := p.unit.info.Uses[id].(*types.PkgName)
			if !ok {
				return true
			}
			switch pn.Imported().Path() {
			case "time":
				if wallClockFuncs[sel.Sel.Name] {
					p.report(sel.Pos(), "determinism",
						"wall-clock call time.%s in simulated package %s (use internal/vclock)",
						sel.Sel.Name, p.unit.path)
				}
			case "math/rand", "math/rand/v2":
				if globalRandFuncs[sel.Sel.Name] {
					p.report(sel.Pos(), "determinism",
						"global math/rand source rand.%s in simulated package %s (use a seeded per-worker RNG)",
						sel.Sel.Name, p.unit.path)
				}
			}
			return true
		})
	}
}
