// Package hotpath rejects allocating constructs in functions annotated
// //repro:hotpath.
//
// The per-iteration-point code — the transfer replay walker's innermost
// sweep, the replay automaton, the shard row writer, the disabled
// observability paths — must not allocate: AllocsPerRun pins prove it
// for a few entry points at runtime, this pass proves it for every
// annotated function at compile time, and catches the regression in the
// diff instead of the benchmark dashboard.
//
// Flagged constructs (each an allocation or an allocation in disguise):
//
//   - any fmt.* call
//   - string concatenation (+ / += on strings)
//   - map and slice composite literals, make(map/slice/chan), new(T)
//   - function literals that capture enclosing variables (the closure
//     context escapes to the heap)
//   - conversions between string and []byte/[]rune
//   - boxing into an interface: explicit conversions, assignments to
//     interface-typed variables, and concrete arguments passed to
//     interface-typed parameters
//
// A deliberate cold-path allocation inside a hot function (say a panic
// message on a can't-happen branch) carries a trailing
// //repro:allowalloc <reason> on its line.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analyzers/analysis"
	"repro/internal/analyzers/directives"
)

var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "reject allocating constructs in //repro:hotpath functions",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		var idx directives.LineIndex
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if _, ok := directives.Named(fn.Doc, "hotpath"); !ok {
				continue
			}
			if idx == nil {
				idx = directives.IndexFile(pass.Fset, f)
			}
			(&checker{pass: pass, idx: idx, fname: fn.Name.Name}).check(fn.Body)
		}
	}
	return nil
}

type checker struct {
	pass  *analysis.Pass
	idx   directives.LineIndex
	fname string
}

// report emits unless the construct's line carries //repro:allowalloc.
func (c *checker) report(n ast.Node, format string, args ...interface{}) {
	line := c.pass.Fset.Position(n.Pos()).Line
	if d, ok := c.idx.At(line, "allowalloc"); ok {
		if d.Arg == "" {
			c.pass.Reportf(d.Pos, "//repro:allowalloc escape needs a reason")
		}
		return
	}
	c.pass.Reportf(n.Pos(), "hot path %s: "+format, append([]interface{}{c.fname}, args...)...)
}

func (c *checker) check(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(c.pass.TypesInfo.TypeOf(n)) {
				c.report(n, "string concatenation allocates")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(c.pass.TypesInfo.TypeOf(n.Lhs[0])) {
				c.report(n, "string concatenation allocates")
			}
			if n.Tok == token.ASSIGN {
				for i := range n.Lhs {
					if i < len(n.Rhs) && len(n.Lhs) == len(n.Rhs) {
						c.checkBoxing(n.Rhs[i], c.pass.TypesInfo.TypeOf(n.Lhs[i]), "assignment")
					}
				}
			}
		case *ast.CompositeLit:
			if t := c.pass.TypesInfo.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					c.report(n, "map literal allocates")
				case *types.Slice:
					c.report(n, "slice literal allocates")
				}
			}
		case *ast.FuncLit:
			if caps := c.captures(n); len(caps) > 0 {
				c.report(n, "closure captures %s and allocates its context", strings.Join(caps, ", "))
				return false // one finding per capturing closure is enough
			}
		case *ast.CallExpr:
			return c.checkCall(n)
		}
		return true
	})
}

func (c *checker) checkCall(call *ast.CallExpr) bool {
	// Conversions.
	if c.isConversion(call) {
		dst := c.pass.TypesInfo.TypeOf(call)
		var src types.Type
		if len(call.Args) == 1 {
			src = c.pass.TypesInfo.TypeOf(call.Args[0])
		}
		if dst == nil || src == nil {
			return true
		}
		switch {
		case types.IsInterface(dst.Underlying()) && !types.IsInterface(src.Underlying()) && !isUntypedNil(src):
			c.report(call, "conversion boxes %s into %s", src, dst)
		case isString(src) && isByteOrRuneSlice(dst):
			c.report(call, "string→slice conversion allocates")
		case isByteOrRuneSlice(src) && isString(dst):
			c.report(call, "slice→string conversion allocates")
		}
		return true
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				if t := c.pass.TypesInfo.TypeOf(call); t != nil {
					switch t.Underlying().(type) {
					case *types.Map, *types.Slice, *types.Chan:
						c.report(call, "make(%s) allocates", t)
					}
				}
			case "new":
				c.report(call, "new allocates")
			}
			return true
		}
	}

	// fmt.* calls.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := c.pass.TypesInfo.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				c.report(call, "calls fmt.%s, which allocates", sel.Sel.Name)
				return true
			}
		}
	}

	// Implicit boxing of concrete arguments into interface parameters.
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok {
		if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
			c.checkArgBoxing(call, sig)
		}
	}
	return true
}

func (c *checker) checkArgBoxing(call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type() // arg is already a slice
			} else if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil {
			c.checkBoxing(arg, pt, "argument")
		}
	}
}

func (c *checker) checkBoxing(expr ast.Expr, target types.Type, what string) {
	if target == nil || !types.IsInterface(target.Underlying()) {
		return
	}
	at := c.pass.TypesInfo.TypeOf(expr)
	if at == nil || types.IsInterface(at.Underlying()) || isUntypedNil(at) {
		return
	}
	c.report(expr, "%s boxes %s into %s", what, at, target)
}

// captures lists enclosing-function variables the literal closes over
// (package-level variables need no closure context and do not count).
func (c *checker) captures(lit *ast.FuncLit) []string {
	seen := map[*types.Var]bool{}
	var names []string
	ast.Inspect(lit, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := c.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // declared inside the literal
		}
		if v.Parent() == c.pass.Pkg.Scope() {
			return true // package-level
		}
		seen[v] = true
		names = append(names, v.Name())
		return true
	})
	sort.Strings(names)
	return names
}

func (c *checker) isConversion(call *ast.CallExpr) bool {
	tv, ok := c.pass.TypesInfo.Types[call.Fun]
	return ok && tv.IsType()
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}
