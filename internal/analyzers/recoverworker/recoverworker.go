// Package recoverworker verifies that goroutines launched in packages
// annotated //repro:recover-workers recover panics.
//
// PR 2's panic-isolation invariant: an estimator panic becomes a
// per-point error instead of killing the sweep (and, worse, deadlocking
// the worker pool on an unclosed channel). That only holds if every
// goroutine in the worker paths routes panics somewhere — a `go func`
// added without a recover silently reintroduces the process-killing
// failure mode.
//
// In an opted-in package every `go` statement must be protected:
//
//   - a function literal whose top-level statements include a
//     `defer func() { ... recover() ... }()`, or a defer of a helper
//     whose name contains "recover" (e.g. `defer recoverTo(&err)`), or
//   - a call to a named function in the same package whose body carries
//     such a defer, or whose name itself contains "recover".
//
// A goroutine that provably cannot panic can carry a
// //repro:norecover <reason> escape on the `go` statement's line.
package recoverworker

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analyzers/analysis"
	"repro/internal/analyzers/directives"
)

var Analyzer = &analysis.Analyzer{
	Name: "recoverworker",
	Doc:  "require panic recovery in goroutines of //repro:recover-workers packages",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !directives.PkgHas(pass.Files, "recover-workers") {
		return nil
	}

	// Map package functions to their declarations so `go worker(...)`
	// can be checked through the callee's body.
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
					decls[obj] = fn
				}
			}
		}
	}

	for _, f := range pass.Files {
		idx := directives.IndexFile(pass.Fset, f)
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if d, ok := idx.At(pass.Fset.Position(g.Pos()).Line, "norecover"); ok {
				if d.Arg == "" {
					pass.Reportf(d.Pos, "//repro:norecover escape needs a reason")
				}
				return true
			}
			if !protected(pass, g.Call, decls) {
				pass.Reportf(g.Pos(),
					"goroutine does not recover panics; begin it with `defer func() { if v := recover(); v != nil { ... } }()` or annotate //repro:norecover <reason>")
			}
			return true
		})
	}
	return nil
}

func protected(pass *analysis.Pass, call *ast.CallExpr, decls map[*types.Func]*ast.FuncDecl) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return bodyRecovers(pass, fun.Body)
	case *ast.Ident:
		return calleeProtected(pass, fun, decls)
	case *ast.SelectorExpr:
		return calleeProtected(pass, fun.Sel, decls)
	}
	return false
}

func calleeProtected(pass *analysis.Pass, id *ast.Ident, decls map[*types.Func]*ast.FuncDecl) bool {
	if recoverish(id.Name) {
		return true
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok {
		return false
	}
	if decl, ok := decls[fn]; ok && decl.Body != nil {
		return bodyRecovers(pass, decl.Body)
	}
	return false
}

// bodyRecovers reports whether the body's top-level statements include a
// defer that establishes panic recovery.
func bodyRecovers(pass *analysis.Pass, body *ast.BlockStmt) bool {
	for _, stmt := range body.List {
		def, ok := stmt.(*ast.DeferStmt)
		if !ok {
			continue
		}
		switch fun := ast.Unparen(def.Call.Fun).(type) {
		case *ast.FuncLit:
			if callsRecover(pass, fun.Body) {
				return true
			}
		case *ast.Ident:
			if recoverish(fun.Name) {
				return true
			}
		case *ast.SelectorExpr:
			if recoverish(fun.Sel.Name) {
				return true
			}
		}
	}
	return false
}

func callsRecover(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "recover" {
				found = true
			}
		}
		return true
	})
	return found
}

func recoverish(name string) bool {
	return strings.Contains(strings.ToLower(name), "recover")
}
