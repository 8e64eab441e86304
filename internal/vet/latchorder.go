package vet

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"github.com/spitfire-db/spitfire/internal/lockcheck"
)

// checkLatchOrder applies the latch discipline — lockcheck.Violation, the
// rules the -tags lockcheck runtime checker enforces — to each function
// body on its own.
//
// A latch is taken by calling a shim: a function of the analysed package
// that hands lockcheck.Acquire (a blocking lock), Acquired (a TryLock that
// succeeded) or Release a holder, an object rooted at its receiver or at
// one of its parameters, and a constant rank. At a call site the expression
// in the object's position names the latch: d.lockN(h) takes d's latchN,
// m.lockShard(h, sh) takes sh's shard mutex, s.lockTxnsShared(h) takes s's
// transaction gate. The holder is the runtime checker's identity; one
// function body is one holder here.
// Two more findings keep the shims honest: locking a mutex field a shim
// guards anywhere but in a shim (the runtime checker would never see it),
// and a call into the device, clock or WAL packages while a descriptor's mu
// is held (mu is a leaf: no I/O under it). The analysis is
// intra-procedural; the runtime checker catches what crosses functions.
func checkLatchOrder(p *pass) {
	shims, fields := findShims(p)
	walkFuncs(p, func(fd *ast.FuncDecl) flowState {
		if _, ok := shims[p.unit.info.Defs[fd.Name]]; ok {
			return nil
		}
		return &latchState{pass: p, shims: shims, fields: fields}
	})
}

// shim is one function that routes a mutex through lockcheck.
type shim struct {
	name string
	rank int
	kind string // the lockcheck function it calls: Acquire, Acquired or Release
	arg  int    // the parameter the latch is rooted at; -1 for the receiver
}

// findShims returns the package's shims by function, and the mutex fields
// they lock by the name of the first shim that locks each.
func findShims(p *pass) (map[types.Object]shim, map[types.Object]string) {
	shims := map[types.Object]shim{}
	fields := map[types.Object]string{}
	for _, f := range p.unit.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			sh, ok := p.shimOf(fd)
			if !ok {
				continue
			}
			shims[p.unit.info.Defs[fd.Name]] = sh
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok {
					if fld, _, m := p.mutexCall(c); fld != nil && isLock(m) && fields[fld] == "" {
						fields[fld] = sh.name
					}
				}
				return true
			})
		}
	}
	return shims, fields
}

// shimOf reports whether fd is a shim: its first call to lockcheck's
// Acquire, Acquired or Release passes an object rooted at fd's receiver or
// at one of its parameters, and a constant rank.
func (p *pass) shimOf(fd *ast.FuncDecl) (shim, bool) {
	roots := []types.Object{nil} // the receiver, then the parameters
	if fd.Recv != nil && len(fd.Recv.List[0].Names) == 1 {
		roots[0] = p.unit.info.Defs[fd.Recv.List[0].Names[0]]
	}
	for _, f := range fd.Type.Params.List {
		if len(f.Names) == 0 {
			roots = append(roots, nil)
		}
		for _, n := range f.Names {
			roots = append(roots, p.unit.info.Defs[n])
		}
	}

	var call *ast.CallExpr
	var fn *types.Func
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && call == nil {
			if f := p.calleeIn(c, []string{lockcheckPackage}); f != nil {
				switch f.Name() {
				case "Acquire", "Acquired", "Release":
					call, fn = c, f
				}
			}
		}
		return call == nil
	})
	if call == nil || len(call.Args) != 3 {
		return shim{}, false
	}
	rank, root := p.unit.info.Types[call.Args[2]].Value, rootIdent(call.Args[1])
	if rank == nil || rank.Kind() != constant.Int || root == nil {
		return shim{}, false
	}
	r, _ := constant.Int64Val(rank)
	for i, obj := range roots {
		if obj != nil && obj == p.unit.info.Uses[root] {
			return shim{name: fd.Name.Name, rank: int(r), kind: fn.Name(), arg: i - 1}, true
		}
	}
	return shim{}, false
}

// rootIdent returns the variable an expression such as &p.freeMu or
// m.shards[i] is rooted at.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// mutexCall resolves a call x.f.M() where f is a struct field and M a
// method of package sync, returning f, x.f and M.
func (p *pass) mutexCall(c *ast.CallExpr) (types.Object, ast.Expr, string) {
	fn := p.callee(c)
	if fn == nil || fn.Pkg().Path() != "sync" {
		return nil, nil, ""
	}
	sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, nil, ""
	}
	if fsel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
		if v, ok := p.unit.info.Uses[fsel.Sel].(*types.Var); ok && v.IsField() {
			return v, fsel, fn.Name()
		}
	}
	return nil, nil, ""
}

// isLock reports whether a sync method takes its mutex: Lock, TryLock,
// RLock or TryRLock.
func isLock(method string) bool {
	return strings.HasSuffix(method, "Lock") && !strings.HasSuffix(method, "Unlock")
}

// latchState is the list of latches held, in acquisition order, each named
// by the expression its shim was called on.
type latchState struct {
	pass   *pass
	shims  map[types.Object]shim
	fields map[types.Object]string
	held   []lockcheck.Held
}

func (s *latchState) clone() flowState {
	c := *s
	c.held = append([]lockcheck.Held(nil), s.held...)
	return &c
}

func (s *latchState) lit() flowState {
	return &latchState{pass: s.pass, shims: s.shims, fields: s.fields}
}

// call applies a shim call to the held list, and reports a direct lock of a
// shim's mutex and I/O under mu. A deferred unlock keeps its latch held to
// the end of the walk, which is the model wanted; a TryLock holds its latch
// only on the branch where it succeeded (assume, assign).
func (s *latchState) call(c *ast.CallExpr, later bool) {
	if later {
		return
	}
	if sh, key, ok := s.latch(c); ok {
		if sh.kind == "Release" {
			for i := len(s.held) - 1; i >= 0; i-- {
				if s.held[i] == (lockcheck.Held{Obj: key, Rank: sh.rank}) {
					s.held = append(s.held[:i], s.held[i+1:]...)
					break
				}
			}
			return
		}
		if _, msg := lockcheck.Violation(s.held, key, sh.rank, sh.kind == "Acquire"); msg != "" {
			s.pass.report(c.Pos(), "latchorder", "%s", msg)
		}
		if sh.kind == "Acquire" {
			s.held = append(s.held, lockcheck.Held{Obj: key, Rank: sh.rank})
		}
		return
	}
	if fld, mu, m := s.pass.mutexCall(c); fld != nil && isLock(m) {
		if name, ok := s.fields[fld]; ok {
			s.pass.report(c.Pos(), "latchorder",
				"%s locked directly: take it through %s so lockcheck sees it", exprKey(mu), name)
		}
	}
	if fn := s.pass.calleeIn(c, ioPackages); fn != nil {
		for _, h := range s.held {
			if h.Rank == lockcheck.RankMu {
				s.pass.report(c.Pos(), "latchorder",
					"call to %s.%s while %s.mu is held (mu is a leaf lock: no device/vclock I/O under it)",
					pkgShort(fn), fn.Name(), h.Obj)
				break
			}
		}
	}
}

// assume holds a TryLock's latch on the branch where it succeeded:
//
//	if !d.tryLockN() { return }   // held after the if
//	if d.tryLockN() { ...body... } // held inside the body only
func (s *latchState) assume(cond ast.Expr, truth bool) {
	cond = ast.Unparen(cond)
	if un, ok := cond.(*ast.UnaryExpr); ok && un.Op == token.NOT {
		cond, truth = ast.Unparen(un.X), !truth
	}
	if c, ok := cond.(*ast.CallExpr); ok && truth {
		s.tookTry(c)
	}
}

// assign assumes `ok := d.tryLockN()` succeeded, so inversions on the
// success path are still caught.
func (s *latchState) assign(a *ast.AssignStmt) {
	for _, r := range a.Rhs {
		if c, ok := ast.Unparen(r).(*ast.CallExpr); ok {
			s.tookTry(c)
		}
	}
}

func (s *latchState) tookTry(c *ast.CallExpr) {
	if sh, key, ok := s.latch(c); ok && sh.kind == "Acquired" {
		s.held = append(s.held, lockcheck.Held{Obj: key, Rank: sh.rank})
	}
}

// latch resolves a call to a shim and the key of the latch it names.
func (s *latchState) latch(c *ast.CallExpr) (shim, string, bool) {
	fn := s.pass.callee(c)
	if fn == nil {
		return shim{}, "", false
	}
	sh, ok := s.shims[fn]
	if !ok {
		return shim{}, "", false
	}
	if sh.arg >= 0 {
		if sh.arg >= len(c.Args) {
			return shim{}, "", false
		}
		return sh, exprKey(c.Args[sh.arg]), true
	}
	sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
	if !ok {
		return shim{}, "", false
	}
	return sh, exprKey(sel.X), true
}

// callee resolves a call's static callee, or nil for a builtin, a
// conversion or a call through a function value.
func (p *pass) callee(call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = p.unit.info.Uses[fun]
	case *ast.SelectorExpr:
		obj = p.unit.info.Uses[fun.Sel]
	}
	if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil {
		return fn
	}
	return nil
}

// calleeIn is callee when it belongs to one of the given import-path
// suffixes.
func (p *pass) calleeIn(call *ast.CallExpr, pkgs []string) *types.Func {
	if fn := p.callee(call); fn != nil && pathMatches(fn.Pkg().Path(), pkgs) {
		return fn
	}
	return nil
}
