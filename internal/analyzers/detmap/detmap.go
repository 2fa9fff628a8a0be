// Package detmap flags map iteration whose per-element results reach an
// output or hash sink, in packages that promise byte-identical output.
//
// The engine guarantees byte-identical reports and shard files for any
// worker/shard count (DESIGN.md §3, §7). Go map iteration order is
// deliberately randomized, so a `range` over a map (or sync.Map.Range)
// that writes, hashes or encodes inside the loop body breaks that
// guarantee nondeterministically — the exact bug class the golden
// byte-identity tests catch only when they get lucky.
//
// A package opts in with a //repro:deterministic-output comment (near
// the package clause by convention). In such packages the analyzer
// flags any map range statement, and any sync.Map.Range callback, whose
// body calls an output sink: fmt.Print*/Fprint*, io.WriteString,
// println, or a method named Write/WriteString/WriteByte/WriteRune/
// WriteTo/Encode/EncodeToken/Print/Printf/Println (this covers
// io.Writer, strings.Builder, hash.Hash, csv.Writer, json.Encoder, ...).
// Loops that only collect (append, map insert) and emit after sorting
// are the intended pattern and pass untouched. A genuinely
// order-insensitive emission can carry a //repro:unordered <reason>
// escape on the range statement's line (or the line above).
package detmap

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analyzers/analysis"
	"repro/internal/analyzers/directives"
)

var Analyzer = &analysis.Analyzer{
	Name: "detmap",
	Doc:  "flag map iteration feeding output/hash sinks in //repro:deterministic-output packages",
	Run:  run,
}

// sinkMethods are method names that emit bytes in call order.
var sinkMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"WriteTo": true, "Encode": true, "EncodeToken": true,
	"Print": true, "Printf": true, "Println": true,
}

func run(pass *analysis.Pass) error {
	if !directives.PkgHas(pass.Files, "deterministic-output") {
		return nil
	}
	for _, f := range pass.Files {
		idx := directives.IndexFile(pass.Fset, f)
		escaped := func(n ast.Node) bool {
			d, ok := idx.At(pass.Fset.Position(n.Pos()).Line, "unordered")
			if !ok {
				return false
			}
			if d.Arg == "" {
				pass.Reportf(d.Pos, "//repro:unordered escape needs a reason")
			}
			return true
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				t := pass.TypesInfo.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, ok := t.Underlying().(*types.Map); !ok {
					return true
				}
				if sink, name := firstSink(pass, n.Body); sink != nil && !escaped(n) {
					pass.Reportf(n.Pos(),
						"range over map reaches output sink %s in nondeterministic order; collect and sort first, or annotate //repro:unordered <reason>",
						name)
				}
			case *ast.CallExpr:
				// sync.Map.Range(func(k, v any) bool { ... })
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Range" || len(n.Args) != 1 {
					return true
				}
				if !isSyncMap(pass.TypesInfo.TypeOf(sel.X)) {
					return true
				}
				lit, ok := n.Args[0].(*ast.FuncLit)
				if !ok {
					return true
				}
				if sink, name := firstSink(pass, lit.Body); sink != nil && !escaped(n) {
					pass.Reportf(n.Pos(),
						"sync.Map.Range callback reaches output sink %s in nondeterministic order; collect and sort first, or annotate //repro:unordered <reason>",
						name)
				}
			}
			return true
		})
	}
	return nil
}

// firstSink returns the first output-sink call in the body, if any.
func firstSink(pass *analysis.Pass, body *ast.BlockStmt) (ast.Node, string) {
	var found ast.Node
	var name string
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if fun.Name == "println" || fun.Name == "print" {
				if _, ok := pass.TypesInfo.Uses[fun].(*types.Builtin); ok {
					found, name = call, fun.Name
				}
			}
		case *ast.SelectorExpr:
			if pkg := packageOf(pass, fun); pkg != "" {
				switch pkg {
				case "fmt":
					if strings.HasPrefix(fun.Sel.Name, "Print") || strings.HasPrefix(fun.Sel.Name, "Fprint") {
						found, name = call, "fmt."+fun.Sel.Name
					}
				case "io":
					if fun.Sel.Name == "WriteString" {
						found, name = call, "io.WriteString"
					}
				}
				return true
			}
			if sinkMethods[fun.Sel.Name] {
				if sel, ok := pass.TypesInfo.Selections[fun]; ok && sel.Kind() == types.MethodVal {
					found, name = call, "(method) "+fun.Sel.Name
				}
			}
		}
		return true
	})
	return found, name
}

// packageOf returns the imported package name when the selector is a
// qualified identifier (pkg.Func), else "".
func packageOf(pass *analysis.Pass, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

func isSyncMap(t types.Type) bool {
	if t == nil {
		return false
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	nm, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := nm.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Map"
}
