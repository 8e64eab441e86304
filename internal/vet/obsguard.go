package vet

import (
	"go/ast"
	"go/types"
	"strings"
)

// checkObsGuard flags method calls on the observability types (obsTypes:
// *obs.Obs, *obs.Ring, *metrics.Histogram) that are not dominated by a nil
// check. The disabled fast path costs one pointer nil-check per operation
// (~92 ns on a DRAM hit, DESIGN.md §6c); an unguarded Observe/Emit on
// a hot path would either pay clock reads with observability off or panic on
// the nil histogram pointers a disabled manager carries.
//
// The domination analysis is a pragmatic intra-function walk, not SSA: a
// call is considered guarded when it sits under (a) an if-condition that
// checked its receiver expression against nil, (b) any active nil check of a
// *obs.Obs-typed expression — the codebase's convention is that the cached
// histogram/ring pointers are non-nil exactly when the Obs pointer is — or
// (c) a receiver chained from a local built by an obs/metrics constructor in
// the same function (provably non-nil).
func checkObsGuard(p *pass) {
	if !strings.Contains(p.unit.path, simScope) {
		return
	}
	// The packages defining the observability types check their own
	// receivers (nil-receiver methods are part of their API contract).
	for _, t := range obsTypes {
		if pathMatches(p.unit.path, []string{t[:strings.LastIndex(t, ".")]}) {
			return
		}
	}
	walkFuncs(p, func(*ast.FuncDecl) flowState {
		return &guardState{pass: p, env: map[string]types.Type{}, locals: map[types.Object]bool{}}
	})
}

// guardState is what one path through a function body knows to be non-nil.
type guardState struct {
	pass *pass
	// env maps canonical expression strings known non-nil to their type.
	env map[string]types.Type
	// locals marks objects assigned from an obs/metrics constructor call.
	locals map[types.Object]bool
}

func (g *guardState) clone() flowState {
	c := &guardState{pass: g.pass, env: map[string]types.Type{}, locals: map[types.Object]bool{}}
	for k, v := range g.env {
		c.env[k] = v
	}
	for k, v := range g.locals {
		c.locals[k] = v
	}
	return c
}

// lit starts a closure with no guards: it runs later, when the guards
// active here may be stale, and the codebase's closures re-check.
func (g *guardState) lit() flowState {
	return &guardState{pass: g.pass, env: map[string]types.Type{}, locals: g.locals}
}

// assume adds the nil checks cond proves on the branch where it is truth.
func (g *guardState) assume(cond ast.Expr, truth bool) {
	pos, neg := splitNilChecks(g.pass, cond)
	if !truth {
		pos = neg
	}
	for k, t := range pos {
		g.env[k] = t
	}
}

func (g *guardState) assign(s *ast.AssignStmt) {
	g.trackConstructor(s)
	// An assignment to a guarded expression invalidates its guard.
	for _, l := range s.Lhs {
		delete(g.env, exprKey(l))
	}
}

// call reports x when it is an unguarded protected method call.
func (g *guardState) call(x *ast.CallExpr, _ bool) {
	sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	// Only method calls (selection on a value, not a package).
	if _, isPkg := g.pass.unit.info.Uses[selRootIdent(sel)].(*types.PkgName); isPkg && selRootIdent(sel) != nil && sel.X == ast.Expr(selRootIdent(sel)) {
		return
	}
	recvType := g.pass.unit.info.Types[sel.X].Type
	tn := protectedTypeName(recvType)
	if tn == "" {
		return
	}
	if g.guarded(sel.X) {
		return
	}
	g.pass.report(x.Pos(), "obsguard",
		"call to (*%s).%s not dominated by a nil check (guard it or hoist it under the obs != nil fast-path check)",
		tn, sel.Sel.Name)
}

// guarded reports whether recv is covered by an active guard.
func (g *guardState) guarded(recv ast.Expr) bool {
	if _, ok := g.env[exprKey(recv)]; ok {
		return true
	}
	// Convention guard: any live *obs.Obs nil check covers the cached
	// histogram/ring pointers derived from it.
	for _, t := range g.env {
		if n := namedPtrName(t); n != "" && strings.HasSuffix(n, ".Obs") {
			return true
		}
	}
	// Constructor-derived locals are provably non-nil.
	if id, ok := ast.Unparen(recv).(*ast.Ident); ok {
		if obj := g.pass.unit.info.Uses[id]; obj != nil && g.locals[obj] {
			return true
		}
	}
	return false
}

// trackConstructor marks locals assigned from an obs/metrics constructor
// (`o := obs.New(...)`, `h := o.Hist(...)`) as non-nil.
func (g *guardState) trackConstructor(s *ast.AssignStmt) {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return
	}
	id, ok := s.Lhs[0].(*ast.Ident)
	if !ok {
		return
	}
	call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	retType := g.pass.unit.info.Types[call].Type
	if protectedTypeName(retType) == "" {
		return
	}
	// Methods on a protected type returning a protected type (Obs.Hist,
	// Obs.NewRing) only run under a guard themselves; plain constructors
	// (obs.New) always return non-nil. Either way the local is safe only if
	// the call itself was guarded — call already policed that — so
	// record it.
	var obj types.Object
	if def := g.pass.unit.info.Defs[id]; def != nil {
		obj = def
	} else {
		obj = g.pass.unit.info.Uses[id]
	}
	if obj != nil {
		g.locals[obj] = true
	}
}

// splitNilChecks extracts nil-comparison guards from an if condition:
// pos holds expressions non-nil when the condition is true, neg those
// non-nil when it is false.
func splitNilChecks(p *pass, cond ast.Expr) (pos, neg map[string]types.Type) {
	pos, neg = map[string]types.Type{}, map[string]types.Type{}
	var walk func(e ast.Expr, invert bool)
	walk = func(e ast.Expr, invert bool) {
		switch x := ast.Unparen(e).(type) {
		case *ast.BinaryExpr:
			switch x.Op.String() {
			case "&&", "||":
				// Conservative: a != nil conjunct guards the true branch of
				// &&; a == nil disjunct guards the false branch of ||.
				walk(x.X, invert)
				walk(x.Y, invert)
			case "!=", "==":
				other, okNil := nilComparand(x)
				if !okNil {
					return
				}
				nonNilWhenTrue := x.Op.String() == "!="
				if invert {
					nonNilWhenTrue = !nonNilWhenTrue
				}
				t := p.unit.info.Types[other].Type
				if nonNilWhenTrue {
					pos[exprKey(other)] = t
				} else {
					neg[exprKey(other)] = t
				}
			}
		case *ast.UnaryExpr:
			if x.Op.String() == "!" {
				walk(x.X, !invert)
			}
		}
	}
	walk(cond, false)
	return pos, neg
}

// nilComparand returns the non-nil side of a comparison against nil.
func nilComparand(b *ast.BinaryExpr) (ast.Expr, bool) {
	if isNilIdent(b.Y) {
		return b.X, true
	}
	if isNilIdent(b.X) {
		return b.Y, true
	}
	return nil, false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// protectedTypeName returns the short "pkg.Type" name when t is a pointer to
// one of obsTypes, else "".
func protectedTypeName(t types.Type) string {
	n := namedPtrName(t)
	for _, want := range obsTypes {
		if pathMatches(n, []string{want}) {
			return want[strings.LastIndex(want, "/")+1:]
		}
	}
	return ""
}

// namedPtrName renders *pkgpath.Type as "pkgpath.Type", else "".
func namedPtrName(t types.Type) string {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return ""
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// selRootIdent returns sel.X when it is a bare identifier.
func selRootIdent(sel *ast.SelectorExpr) *ast.Ident {
	id, _ := sel.X.(*ast.Ident)
	return id
}
