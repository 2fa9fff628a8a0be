// Package nilsafeobs enforces nil-receiver guards on exported pointer
// methods in packages annotated //repro:nilsafe.
//
// The observability layer's contract (DESIGN.md §9) is that a nil
// *Metrics/*StageStats/*Tracer is the "off" switch: the entire pipeline
// calls these methods unconditionally and relies on every exported
// method being a cheap no-op on a nil receiver. One method that touches
// a field before checking is a latent crash in every caller that runs
// with metrics off — i.e. the default path.
//
// In an opted-in package, every exported method with a pointer receiver
// must nil-check the receiver before its first receiver field access
// (lexically — the guard must appear earlier in the source than the
// first `recv.field`). Calling other methods on the receiver first is
// fine: those are checked themselves. A method that is genuinely never
// called on a nil receiver can carry //repro:nonnil <reason> in its doc
// comment.
package nilsafeobs

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analyzers/analysis"
	"repro/internal/analyzers/directives"
)

var Analyzer = &analysis.Analyzer{
	Name: "nilsafeobs",
	Doc:  "require nil-receiver guards on exported pointer methods in //repro:nilsafe packages",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !directives.PkgHas(pass.Files, "nilsafe") {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				checkMethod(pass, fn)
			}
		}
	}
	return nil
}

// checkMethod reports an exported pointer method that reads a receiver
// field before it nil-checks the receiver.
func checkMethod(pass *analysis.Pass, fn *ast.FuncDecl) {
	if fn.Body == nil || fn.Recv == nil || len(fn.Recv.List) == 0 || !fn.Name.IsExported() {
		return
	}
	recv := fn.Recv.List[0]
	if _, ok := recv.Type.(*ast.StarExpr); !ok {
		return // value receiver: a copy, nothing to nil-guard
	}
	if d, ok := directives.Named(fn.Doc, "nonnil"); ok {
		if d.Arg == "" {
			pass.Reportf(d.Pos, "//repro:nonnil escape needs a reason")
		}
		return
	}
	if len(recv.Names) == 0 {
		return // anonymous receiver: no field access possible
	}
	recvObj, ok := pass.TypesInfo.Defs[recv.Names[0]].(*types.Var)
	if !ok {
		return
	}

	guardPos := token.NoPos
	derefPos := token.NoPos
	var derefField string
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if (n.Op == token.EQL || n.Op == token.NEQ) && isNilCheckOf(pass, n, recvObj) {
				if !guardPos.IsValid() || n.Pos() < guardPos {
					guardPos = n.Pos()
				}
			}
		case *ast.SelectorExpr:
			sel, ok := pass.TypesInfo.Selections[n]
			if !ok || sel.Kind() != types.FieldVal {
				return true
			}
			if !isUseOf(pass, n.X, recvObj) {
				return true
			}
			if !derefPos.IsValid() || n.Pos() < derefPos {
				derefPos = n.Pos()
				derefField = n.Sel.Name
			}
		}
		return true
	})

	if derefPos.IsValid() && (!guardPos.IsValid() || guardPos > derefPos) {
		pass.Reportf(fn.Name.Pos(),
			"exported method %s accesses %s.%s before a nil-receiver guard; start with `if %s == nil { ... }` or annotate //repro:nonnil <reason>",
			fn.Name.Name, recv.Names[0].Name, derefField, recv.Names[0].Name)
	}
}

// isNilCheckOf reports whether the comparison is `recv == nil` or
// `recv != nil` (either operand order).
func isNilCheckOf(pass *analysis.Pass, b *ast.BinaryExpr, recv *types.Var) bool {
	return (isUseOf(pass, b.X, recv) && isNil(pass, b.Y)) ||
		(isUseOf(pass, b.Y, recv) && isNil(pass, b.X))
}

// isUseOf reports whether the expression is the receiver variable,
// possibly parenthesized or explicitly dereferenced.
func isUseOf(pass *analysis.Pass, e ast.Expr, recv *types.Var) bool {
	e = ast.Unparen(e)
	if star, ok := e.(*ast.StarExpr); ok {
		e = ast.Unparen(star.X)
	}
	id, ok := e.(*ast.Ident)
	return ok && pass.TypesInfo.Uses[id] == recv
}

func isNil(pass *analysis.Pass, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNilObj := pass.TypesInfo.Uses[id].(*types.Nil)
	return isNilObj
}
