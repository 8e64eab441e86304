package vet

import (
	"go/ast"
	"go/types"
)

// checkDroppedErr flags call sites that discard an error result from the
// fault-injected layers (errPackages): a bare call statement, a
// blank-assigned error, or a go/defer of an error-returning call. Those
// errors carry the typed fault classification (device.ErrTransient & co.)
// that PR 2's retry/degradation hardening depends on; dropping one silently
// converts an injected fault into data loss.
func checkDroppedErr(p *pass) {
	for _, f := range p.unit.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					p.flagIfDropsErr(call, "result discarded by bare call")
				}
			case *ast.GoStmt:
				p.flagIfDropsErr(st.Call, "result discarded by go statement")
			case *ast.DeferStmt:
				p.flagIfDropsErr(st.Call, "result discarded by defer")
			case *ast.AssignStmt:
				if len(st.Rhs) != 1 {
					return true
				}
				call, ok := st.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := p.calleeIn(call, errPackages)
				if fn == nil {
					return true
				}
				res := fn.Type().(*types.Signature).Results()
				for i, lhs := range st.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name != "_" || i >= res.Len() {
						continue
					}
					if isErrorType(res.At(i).Type()) {
						p.report(call.Pos(), "droppederr",
							"error result of %s.%s blank-assigned", pkgShort(fn), fn.Name())
					}
				}
			}
			return true
		})
	}
}

// flagIfDropsErr reports call if its callee comes from an errPackages
// package and returns an error that the statement form cannot consume.
func (p *pass) flagIfDropsErr(call *ast.CallExpr, how string) {
	fn := p.calleeIn(call, errPackages)
	if fn == nil {
		return
	}
	res := fn.Type().(*types.Signature).Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			p.report(call.Pos(), "droppederr",
				"error %s: %s.%s", how, pkgShort(fn), fn.Name())
			return
		}
	}
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

func pkgShort(fn *types.Func) string {
	if fn.Pkg() == nil {
		return "?"
	}
	return fn.Pkg().Name()
}
