package vet

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/spitfire-db/spitfire/internal/lockcheck"
)

// checkLatchOrder enforces the descriptor locking discipline documented in
// internal/core/descriptor.go:
//
//  1. Tier latches of one descriptor are taken in the fixed order
//     latchD → latchN → latchS. Skipping a tier is fine; reordering is not.
//  2. mu is a leaf lock: no latch acquisition and no device/vclock/WAL call
//     may happen while any mu is held. The frame slots are written under mu
//     and read atomically; a reader that did not take mu pins the frame and
//     validates its pid, and acquires nothing — so an optimistic hit is
//     clean under every rule here (fixture OptimisticHit).
//  3. A thread already holding a tier latch may touch a second descriptor's
//     tier latches only via TryLock — a blocking Lock on a second
//     descriptor is a lock-cycle waiting to happen.
//  4. A frame group's fg.mu is a strict leaf: taking it under tier latches
//     is the normal order, but nothing may be acquired while it is held.
//  5. A WAL shard's append mutex is a leaf on the append path; shard→shard
//     acquisitions are legal only while the WAL's flushMu is held (the
//     combining flusher draining shards in index order).
//  6. Under flushMu only shard mutexes may be acquired.
//  7. A buffer pool's free-list mutex (basePool.freeMu) is a strict leaf:
//     taking it under tier latches is the normal allocation order, but
//     nothing may be acquired while it is held.
//
// The analysis is intra-function: it simulates the held-latch set over each
// function body, recognizing both the raw field forms (d.latchN.Lock(),
// fg.mu.Lock(), sh.mu.Lock(), m.flushMu.Lock(), p.freeMu.Lock()) and the
// lockcheck shim methods (d.lockN(), fg.lock(), m.lockShard(sh),
// m.tryLockFlush(), p.lockFree(), …). It
// is a static complement to the -tags lockcheck runtime checker, which
// catches the inter-procedural cases this pass cannot see.
func checkLatchOrder(p *pass) {
	for _, f := range p.unit.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &latchWalker{pass: p, held: map[string]map[int]bool{}}
			w.block(fd.Body.List)
		}
	}
}

// latchOp is one classified latch call site.
type latchOp struct {
	base ast.Expr // the descriptor expression
	rank int
	kind string // "lock", "try", "unlock"
}

// latchWalker simulates the held-latch set over one function body.
// held maps a canonical descriptor expression to the set of ranks held.
type latchWalker struct {
	pass *pass
	held map[string]map[int]bool
}

func (w *latchWalker) clone() *latchWalker {
	c := &latchWalker{pass: w.pass, held: map[string]map[int]bool{}}
	for base, ranks := range w.held {
		rs := map[int]bool{}
		for r := range ranks {
			rs[r] = true
		}
		c.held[base] = rs
	}
	return c
}

func (w *latchWalker) block(stmts []ast.Stmt) {
	for _, st := range stmts {
		w.stmt(st)
	}
}

func (w *latchWalker) stmt(st ast.Stmt) {
	switch s := st.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if op, ok := w.pass.latchCall(call); ok {
				w.apply(op, call.Pos())
				return
			}
		}
		w.scanExpr(s.X)
	case *ast.IfStmt:
		w.ifStmt(s)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			// `got := d.latchN.TryLock()` followed by a branch: assume the
			// success path so inversions on it are still caught.
			if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
				if op, ok := w.pass.latchCall(call); ok && op.kind == "try" {
					w.apply(op, call.Pos())
					continue
				}
			}
			w.scanExpr(r)
		}
	case *ast.DeferStmt:
		// A deferred Unlock keeps the latch held to the end of the linear
		// walk, which is exactly the model we want. A deferred closure runs
		// after the function's latches are gone.
		w.scanFuncLits(s.Call)
	case *ast.GoStmt:
		w.scanFuncLits(s.Call)
		for _, a := range s.Call.Args {
			w.scanExpr(a)
		}
	case *ast.BlockStmt:
		w.block(s.List)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Cond != nil {
			w.scanExpr(s.Cond)
		}
		w.clone().block(s.Body.List)
	case *ast.RangeStmt:
		w.scanExpr(s.X)
		w.clone().block(s.Body.List)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Tag != nil {
			w.scanExpr(s.Tag)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.clone().block(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.clone().block(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.clone().block(cc.Body)
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.scanExpr(r)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scanExpr(v)
					}
				}
			}
		}
	case *ast.SendStmt:
		w.scanExpr(s.Chan)
		w.scanExpr(s.Value)
	case *ast.IncDecStmt:
		w.scanExpr(s.X)
	}
}

// ifStmt handles the TryLock idioms:
//
//	if !d.tryLockN() { return }   // held after the if
//	if d.tryLockN() { ...body... } // held inside the body only
func (w *latchWalker) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		w.stmt(s.Init)
	}
	cond := ast.Unparen(s.Cond)

	// Negated try: `if !try { ... }`.
	if un, ok := cond.(*ast.UnaryExpr); ok && un.Op == token.NOT {
		if call, ok := ast.Unparen(un.X).(*ast.CallExpr); ok {
			if op, ok := w.pass.latchCall(call); ok && op.kind == "try" {
				w.clone().block(s.Body.List) // failure path: not held
				if s.Else != nil {
					els := w.clone()
					els.apply(op, call.Pos())
					els.elseBranch(s.Else)
				}
				if terminates(s.Body) {
					w.apply(op, call.Pos()) // success path continues below
				}
				return
			}
		}
	}
	// Positive try: `if try { ... }`.
	if call, ok := cond.(*ast.CallExpr); ok {
		if op, ok := w.pass.latchCall(call); ok && op.kind == "try" {
			then := w.clone()
			then.apply(op, call.Pos())
			then.block(s.Body.List)
			if s.Else != nil {
				w.clone().elseBranch(s.Else)
			}
			return
		}
	}

	w.scanExpr(s.Cond)
	w.clone().block(s.Body.List)
	if s.Else != nil {
		w.clone().elseBranch(s.Else)
	}
}

func (w *latchWalker) elseBranch(s ast.Stmt) {
	switch e := s.(type) {
	case *ast.BlockStmt:
		w.block(e.List)
	case *ast.IfStmt:
		w.ifStmt(e)
	}
}

// scanExpr visits an expression for nested latch calls, I/O-under-mu
// violations and function literals.
func (w *latchWalker) scanExpr(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			inner := &latchWalker{pass: w.pass, held: map[string]map[int]bool{}}
			inner.block(x.Body.List)
			return false
		case *ast.CallExpr:
			if op, ok := w.pass.latchCall(x); ok {
				w.apply(op, x.Pos())
				return true
			}
			w.ioCheck(x)
		}
		return true
	})
}

// scanFuncLits visits only the function literals of a call (for go/defer,
// whose direct call does not execute at this program point).
func (w *latchWalker) scanFuncLits(call *ast.CallExpr) {
	ast.Inspect(call, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			inner := &latchWalker{pass: w.pass, held: map[string]map[int]bool{}}
			inner.block(fl.Body.List)
			return false
		}
		return true
	})
}

// apply mutates the held set for one latch operation, reporting violations.
func (w *latchWalker) apply(op latchOp, pos token.Pos) {
	base := exprKey(op.base)
	switch op.kind {
	case "unlock":
		if rs := w.held[base]; rs != nil {
			delete(rs, op.rank)
			if len(rs) == 0 {
				delete(w.held, base)
			}
		}
		return
	}

	// Rule 2 (mu is a leaf): nothing is acquired while any mu is held.
	for heldBase, rs := range w.held {
		if rs[lockcheck.RankMu] {
			w.pass.report(pos, "latchorder",
				"acquiring %s.%s while %s.mu is held (mu is a leaf lock: acquire nothing under it)",
				base, lockcheck.RankName(op.rank), heldBase)
			break
		}
	}

	// Rule 4 (frame groups): a frame-group lock is a strict leaf — nothing
	// may be acquired while one is held.
	for heldBase, rs := range w.held {
		if rs[lockcheck.RankFg] {
			w.pass.report(pos, "latchorder",
				"acquiring %s.%s while %s (a frame-group lock) is held (fg.mu is a strict leaf)",
				base, lockcheck.RankName(op.rank), heldBase)
			break
		}
	}

	// Rule 7 (pool free lists): a pool's free-list mutex is a strict leaf —
	// nothing may be acquired while one is held.
	for heldBase, rs := range w.held {
		if rs[lockcheck.RankFreeList] {
			w.pass.report(pos, "latchorder",
				"acquiring %s.%s while %s.freeMu is held (a pool's free-list mutex is a strict leaf)",
				base, lockcheck.RankName(op.rank), heldBase)
			break
		}
	}

	// Rules 5 and 6 (WAL order): a shard mutex is a leaf on the append path —
	// shard→shard only under flushMu (the combining flusher) — and flushMu
	// admits nothing but shard mutexes under it.
	flushHeld := false
	for _, rs := range w.held {
		if rs[lockcheck.RankWALFlush] {
			flushHeld = true
			break
		}
	}
	for heldBase, rs := range w.held {
		if rs[lockcheck.RankWALShard] && !(op.rank == lockcheck.RankWALShard && flushHeld) {
			w.pass.report(pos, "latchorder",
				"acquiring %s.%s while %s (a WAL shard mutex) is held (shard mutexes are leaves on the append path; shard→shard only under flushMu)",
				base, lockcheck.RankName(op.rank), heldBase)
			break
		}
	}
	if flushHeld && op.rank != lockcheck.RankWALShard {
		w.pass.report(pos, "latchorder",
			"acquiring %s.%s while flushMu is held (only shard mutexes may be taken under flushMu)",
			base, lockcheck.RankName(op.rank))
	}

	if op.rank == lockcheck.RankMu {
		if w.held[base] != nil && w.held[base][lockcheck.RankMu] {
			w.pass.report(pos, "latchorder",
				"re-acquiring %s.mu already held on this path", base)
		}
		w.hold(base, op.rank)
		return
	}

	// Rule 1 (tier order on one descriptor): a new tier latch must outrank
	// every tier latch already held on the same descriptor. Only the tier
	// ranks participate — fg/WAL locks have their own rules above.
	if rs := w.held[base]; rs != nil && op.rank <= lockcheck.RankS {
		for r := range rs {
			if r <= lockcheck.RankS && r >= op.rank {
				w.pass.report(pos, "latchorder",
					"acquiring %s.%s while holding %s.%s (tier order is latchD → latchN → latchS)",
					base, lockcheck.RankName(op.rank), base, lockcheck.RankName(r))
				break
			}
		}
	}

	// Rule 3 (second descriptor): blocking Lock of a tier latch is illegal
	// while any other descriptor's tier latch is held. Tier latches only:
	// taking fg.mu or a WAL lock under a tier latch is the normal order.
	if op.kind == "lock" && op.rank <= lockcheck.RankS {
	outer:
		for heldBase, rs := range w.held {
			if heldBase == base {
				continue
			}
			for r := range rs {
				if r <= lockcheck.RankS {
					w.pass.report(pos, "latchorder",
						"blocking Lock of %s.%s while holding %s.%s on another descriptor (use TryLock for second descriptors)",
						base, lockcheck.RankName(op.rank), heldBase, lockcheck.RankName(r))
					break outer
				}
			}
		}
	}

	w.hold(base, op.rank)
}

func (w *latchWalker) hold(base string, rank int) {
	if w.held[base] == nil {
		w.held[base] = map[int]bool{}
	}
	w.held[base][rank] = true
}

// muHeld reports whether any descriptor's mu is in the held set.
func (w *latchWalker) muHeld() (string, bool) {
	for base, rs := range w.held {
		if rs[lockcheck.RankMu] {
			return base, true
		}
	}
	return "", false
}

// ioCheck flags a call into the device/vclock/WAL surface while mu is held.
func (w *latchWalker) ioCheck(call *ast.CallExpr) {
	muBase, ok := w.muHeld()
	if !ok {
		return
	}
	fn := w.pass.calleeIn(call, w.pass.cfg.IOPackages)
	if fn == nil {
		return
	}
	w.pass.report(call.Pos(), "latchorder",
		"call to %s.%s while %s.mu is held (mu is a leaf lock: no device/vclock I/O under it)",
		pkgShort(fn), fn.Name(), muBase)
}

// calleeIn resolves a call's static callee when it belongs to one of the
// given import-path suffixes.
func (p *pass) calleeIn(call *ast.CallExpr, pkgs []string) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = p.unit.info.Uses[fun]
	case *ast.SelectorExpr:
		obj = p.unit.info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || !pathMatches(fn.Pkg().Path(), pkgs) {
		return nil
	}
	return fn
}

// latchShims maps the internal/core shim method names to (rank, kind).
var latchShims = map[string]latchOp{
	"lockD":     {rank: lockcheck.RankD, kind: "lock"},
	"tryLockD":  {rank: lockcheck.RankD, kind: "try"},
	"unlockD":   {rank: lockcheck.RankD, kind: "unlock"},
	"lockN":     {rank: lockcheck.RankN, kind: "lock"},
	"tryLockN":  {rank: lockcheck.RankN, kind: "try"},
	"unlockN":   {rank: lockcheck.RankN, kind: "unlock"},
	"lockS":     {rank: lockcheck.RankS, kind: "lock"},
	"tryLockS":  {rank: lockcheck.RankS, kind: "try"},
	"unlockS":   {rank: lockcheck.RankS, kind: "unlock"},
	"lockMu":    {rank: lockcheck.RankMu, kind: "lock"},
	"tryLockMu": {rank: lockcheck.RankMu, kind: "try"},
	"unlockMu":  {rank: lockcheck.RankMu, kind: "unlock"},
}

func latchFieldRank(name string) int {
	switch name {
	case "latchD":
		return lockcheck.RankD
	case "latchN":
		return lockcheck.RankN
	case "latchS":
		return lockcheck.RankS
	case "mu":
		return lockcheck.RankMu
	}
	return 0
}

// latchCall classifies one call expression as a latch operation on a
// descriptor-shaped value, recognizing the raw field form
// (d.latchN.Lock() / .TryLock() / .Unlock()) and the shim method form
// (d.lockN() / d.tryLockN() / d.unlockN()).
func (p *pass) latchCall(call *ast.CallExpr) (latchOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return latchOp{}, false
	}
	name := sel.Sel.Name

	// Raw field form: <base>.<latchField>.<Lock|TryLock|Unlock>().
	var kind string
	switch name {
	case "Lock":
		kind = "lock"
	case "TryLock":
		kind = "try"
	case "Unlock":
		kind = "unlock"
	}
	if kind != "" {
		inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
		if !ok {
			return latchOp{}, false
		}
		baseT := p.unit.info.Types[inner.X].Type
		switch {
		case inner.Sel.Name == "mu" && p.isFrameGroupType(baseT):
			return latchOp{base: inner.X, rank: lockcheck.RankFg, kind: kind}, true
		case inner.Sel.Name == "mu" && p.isWALShardType(baseT):
			return latchOp{base: inner.X, rank: lockcheck.RankWALShard, kind: kind}, true
		case inner.Sel.Name == "freeMu" && p.isFreeListPoolType(baseT):
			return latchOp{base: inner.X, rank: lockcheck.RankFreeList, kind: kind}, true
		case inner.Sel.Name == "flushMu" && p.isWALManagerType(baseT):
			return latchOp{base: inner.X, rank: lockcheck.RankWALFlush, kind: kind}, true
		}
		rank := latchFieldRank(inner.Sel.Name)
		if rank == 0 || !p.isDescriptorType(baseT) {
			return latchOp{}, false
		}
		return latchOp{base: inner.X, rank: rank, kind: kind}, true
	}

	// Frame-group shim form: fg.lock() / fg.unlock() on an fgState-shaped
	// receiver. The generic names make the type gate load-bearing.
	if name == "lock" || name == "unlock" {
		if p.isFrameGroupType(p.unit.info.Types[sel.X].Type) {
			k := "lock"
			if name == "unlock" {
				k = "unlock"
			}
			return latchOp{base: sel.X, rank: lockcheck.RankFg, kind: k}, true
		}
		return latchOp{}, false
	}

	// Free-list shim form: p.lockFree() / p.unlockFree() on a pool-shaped
	// receiver.
	if name == "lockFree" || name == "unlockFree" {
		if p.isFreeListPoolType(p.unit.info.Types[sel.X].Type) {
			k := "lock"
			if name == "unlockFree" {
				k = "unlock"
			}
			return latchOp{base: sel.X, rank: lockcheck.RankFreeList, kind: k}, true
		}
		return latchOp{}, false
	}

	// WAL shard shim form: the shard is an argument, so the *argument* is the
	// latch's base.
	if name == "lockShard" || name == "unlockShard" {
		if len(call.Args) == 1 && p.isWALManagerType(p.unit.info.Types[sel.X].Type) {
			k := "lock"
			if name == "unlockShard" {
				k = "unlock"
			}
			return latchOp{base: call.Args[0], rank: lockcheck.RankWALShard, kind: k}, true
		}
		return latchOp{}, false
	}
	if name == "lockFlush" || name == "tryLockFlush" || name == "unlockFlush" {
		if p.isWALManagerType(p.unit.info.Types[sel.X].Type) {
			k := "lock"
			switch name {
			case "tryLockFlush":
				k = "try"
			case "unlockFlush":
				k = "unlock"
			}
			return latchOp{base: sel.X, rank: lockcheck.RankWALFlush, kind: k}, true
		}
		return latchOp{}, false
	}

	// Descriptor shim method form.
	op, ok := latchShims[name]
	if !ok || !p.isDescriptorType(p.unit.info.Types[sel.X].Type) {
		return latchOp{}, false
	}
	op.base = sel.X
	return op, true
}

// isFrameGroupType reports whether t (possibly a pointer) is shaped like
// internal/core's fgState: a struct with a mu sync.Mutex plus resident and
// dirty bitmap fields. Only on such structs does a bare lock()/unlock()
// method or a .mu field carry frame-group locking semantics.
func (p *pass) isFrameGroupType(t types.Type) bool {
	st := structOf(t)
	if st == nil {
		return false
	}
	var hasMu, hasResident, hasDirty bool
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		switch f.Name() {
		case "mu":
			hasMu = isSyncMutex(f.Type())
		case "resident":
			hasResident = true
		case "dirty":
			hasDirty = true
		}
	}
	return hasMu && hasResident && hasDirty
}

// isWALShardType recognizes internal/wal's walShard shape: a struct with a
// mu sync.Mutex and a bufOff append cursor.
func (p *pass) isWALShardType(t types.Type) bool {
	st := structOf(t)
	if st == nil {
		return false
	}
	var hasMu, hasBufOff bool
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		switch f.Name() {
		case "mu":
			hasMu = isSyncMutex(f.Type())
		case "bufOff":
			hasBufOff = true
		}
	}
	return hasMu && hasBufOff
}

// isFreeListPoolType recognizes internal/core's basePool shape: any struct
// with a freeMu sync.Mutex.
func (p *pass) isFreeListPoolType(t types.Type) bool { return hasMutexField(t, "freeMu") }

// isWALManagerType recognizes internal/wal's Manager shape: any struct with
// a flushMu sync.Mutex.
func (p *pass) isWALManagerType(t types.Type) bool { return hasMutexField(t, "flushMu") }

// hasMutexField reports whether t (possibly a pointer) is a struct with a
// sync.Mutex field of the given name.
func hasMutexField(t types.Type, name string) bool {
	st := structOf(t)
	if st == nil {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == name && isSyncMutex(f.Type()) {
			return true
		}
	}
	return false
}

// structOf strips pointers and returns t's underlying struct, or nil.
func structOf(t types.Type) *types.Struct {
	if t == nil {
		return nil
	}
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	return st
}

// isDescriptorType reports whether t (possibly a pointer) is a struct with
// at least one tier-latch field (latchD/latchN/latchS of type sync.Mutex) —
// the structural signature of a page descriptor. Only on such structs do
// the field names carry locking semantics.
func (p *pass) isDescriptorType(t types.Type) bool {
	if t == nil {
		return false
	}
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if latchFieldRank(f.Name()) == 0 || f.Name() == "mu" {
			continue
		}
		if isSyncMutex(f.Type()) {
			return true
		}
	}
	return false
}

func isSyncMutex(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkg := named.Obj().Pkg().Path()
	name := named.Obj().Name()
	return pkg == "sync" && (name == "Mutex" || name == "RWMutex")
}
