package vet

import (
	"go/ast"
	"strings"
)

// flowState is what one check knows at a point of a function body. The
// flow walker visits the body in evaluation order, cloning the state into
// every branch and loop body, and hands each check the program points it
// reasons about; latchorder's state is the set of latches held, obsguard's
// the expressions known non-nil.
type flowState interface {
	clone() flowState
	// call sees a call evaluated here. later marks a go or defer
	// statement's own call, which runs on another goroutine or at return.
	call(c *ast.CallExpr, later bool)
	// assume narrows the state to the branch where cond is truth.
	assume(cond ast.Expr, truth bool)
	// assign sees an assignment after its right-hand sides were visited.
	assign(s *ast.AssignStmt)
	// lit returns the state a function literal's body starts from.
	lit() flowState
}

// walkFuncs walks every function body of the package with a state made by
// start, or skips the function when start returns nil.
func walkFuncs(p *pass, start func(fd *ast.FuncDecl) flowState) {
	for _, f := range p.unit.files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if st := start(fd); st != nil {
					walkFlow(st, fd.Body.List)
				}
			}
		}
	}
}

func walkFlow(st flowState, stmts []ast.Stmt) {
	w := &flowWalker{st: st}
	for _, s := range stmts {
		w.stmt(s)
	}
}

// flowWalker carries one path's state through a statement list. Only an if
// whose body always leaves replaces it: the code after such an if runs in
// the else branch's state.
type flowWalker struct{ st flowState }

func (w *flowWalker) stmt(st ast.Stmt) {
	switch s := st.(type) {
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			w.expr(r)
		}
		w.st.assign(s)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.expr(s.Cond)
		then, els := w.st.clone(), w.st.clone()
		then.assume(s.Cond, true)
		els.assume(s.Cond, false)
		walkFlow(then, s.Body.List)
		switch e := s.Else.(type) {
		case nil:
			if terminates(s.Body) {
				w.st = els
			}
		case *ast.BlockStmt:
			walkFlow(els, e.List)
		case *ast.IfStmt:
			walkFlow(els, []ast.Stmt{e})
		}
	case *ast.BlockStmt:
		for _, b := range s.List {
			w.stmt(b)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Cond != nil {
			w.expr(s.Cond)
		}
		walkFlow(w.st.clone(), s.Body.List)
	case *ast.RangeStmt:
		w.expr(s.X)
		walkFlow(w.st.clone(), s.Body.List)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Tag != nil {
			w.expr(s.Tag)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				w.expr(e)
			}
			walkFlow(w.st.clone(), cc.Body)
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			walkFlow(w.st.clone(), c.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			walkFlow(w.st.clone(), c.(*ast.CommClause).Body)
		}
	case *ast.GoStmt:
		w.later(s.Call)
	case *ast.DeferStmt:
		w.later(s.Call)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.IncDecStmt:
		w.expr(s.X)
	}
}

// expr visits the calls and function literals of an expression.
func (w *flowWalker) expr(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			walkFlow(w.st.lit(), x.Body.List)
			return false
		case *ast.CallExpr:
			w.st.call(x, false)
		}
		return true
	})
}

// later visits a go or defer statement: its function and arguments are
// evaluated here, its call runs elsewhere.
func (w *flowWalker) later(c *ast.CallExpr) {
	w.st.call(c, true)
	w.expr(c.Fun)
	for _, a := range c.Args {
		w.expr(a)
	}
}

// terminates reports whether a block always leaves the enclosing scope.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// exprKey canonicalizes an expression for matching: a guard against the
// call it covers, a latch against its unlock.
func exprKey(e ast.Expr) string {
	var b strings.Builder
	writeExpr(&b, e)
	return b.String()
}

func writeExpr(b *strings.Builder, e ast.Expr) {
	switch x := e.(type) {
	case *ast.Ident:
		b.WriteString(x.Name)
	case *ast.SelectorExpr:
		writeExpr(b, x.X)
		b.WriteByte('.')
		b.WriteString(x.Sel.Name)
	case *ast.ParenExpr:
		writeExpr(b, x.X)
	case *ast.StarExpr:
		b.WriteByte('*')
		writeExpr(b, x.X)
	case *ast.UnaryExpr:
		b.WriteString(x.Op.String())
		writeExpr(b, x.X)
	case *ast.IndexExpr:
		writeExpr(b, x.X)
		b.WriteByte('[')
		writeExpr(b, x.Index)
		b.WriteByte(']')
	case *ast.CallExpr:
		writeExpr(b, x.Fun)
		b.WriteString("(…)")
	case *ast.BasicLit:
		b.WriteString(x.Value)
	default:
		b.WriteString("?")
	}
}
