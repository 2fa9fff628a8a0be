// Package fingerprintfields verifies that fingerprint functions hash
// every field of the struct types they digest.
//
// The simcache (DESIGN.md §8) is content-addressed: two design points
// share one simulation iff their fingerprints collide. The in-process
// analysis memo is keyed the same way: two kernels of one name share one
// analysis iff their KernelFingerprints collide (DESIGN.md §18). A
// fingerprint that omits a semantically relevant field silently aliases
// distinct cache entries — the classic poisoned-cache bug that
// differential testing finds late and this pass finds at compile time.
//
// Scope: every function whose name ends in "Fingerprint" (Fingerprint,
// KernelFingerprint, ...). For such a function F the
// analyzer collects the struct types F digests — the subject (receiver,
// or first struct-typed parameter) plus every same-package struct whose
// fields F reads — and requires each of their fields to be either
//
//   - referenced in F's body (a selector read such as e.Beta), or
//   - covered by a whole-value use (the value passed entire to a call,
//     e.g. json.Marshal(s)), or
//   - exempted.
//
// Exemptions come in two scopes. A field-site comment
//
//	innerCoef int //repro:nohash derived from flatAff
//
// exempts the field from every fingerprint (for derived caches that are
// never identity). A function-doc line
//
//	//repro:nohash Entry.Beta — Coverage carries the replay-visible part
//
// exempts the field from that one fingerprint only, so a field can be
// mandatory in one digest and exempt in another. Both forms require a
// reason, and a function-site exemption that no longer suppresses
// anything is itself reported (stale exemptions rot).
package fingerprintfields

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analyzers/analysis"
	"repro/internal/analyzers/directives"
)

var Analyzer = &analysis.Analyzer{
	Name: "fingerprintfields",
	Doc:  "check that fingerprint functions hash every struct field or carry //repro:nohash exemptions",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	// Index the package's struct types: field object → owning type, and
	// field-site //repro:nohash exemptions (global across fingerprints).
	fieldOwner := map[*types.Var]*types.Named{}
	globalExempt := map[*types.Var]bool{}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				indexStruct(pass, ts, fieldOwner, globalExempt)
			}
			return true
		})
	}

	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil && strings.HasSuffix(fn.Name.Name, "Fingerprint") {
				checkFingerprint(pass, fn, fieldOwner, globalExempt)
			}
		}
	}
	return nil
}

// indexStruct records the owner of each field of a struct type
// declaration, and its field-site //repro:nohash exemption.
func indexStruct(pass *analysis.Pass, ts *ast.TypeSpec, fieldOwner map[*types.Var]*types.Named, globalExempt map[*types.Var]bool) {
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		return
	}
	obj, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
	if !ok {
		return
	}
	named, ok := types.Unalias(obj.Type()).(*types.Named)
	if !ok {
		return
	}
	under, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	idx := 0
	for _, fl := range st.Fields.List {
		n := len(fl.Names)
		if n == 0 {
			n = 1 // embedded field
		}
		d, ok := directives.Named(fl.Doc, "nohash")
		if !ok {
			d, ok = directives.Named(fl.Comment, "nohash")
		}
		for k := 0; k < n && idx+k < under.NumFields(); k++ {
			f := under.Field(idx + k)
			fieldOwner[f] = named
			if ok && d.Arg != "" {
				globalExempt[f] = true
			}
		}
		if ok && d.Arg == "" {
			pass.Reportf(d.Pos, "//repro:nohash exemption needs a reason")
		}
		idx += n
	}
}

// funcExempt is one //repro:nohash line from a fingerprint's doc comment.
type funcExempt struct {
	typeName  string // "" means the subject type
	fieldName string
	pos       ast.Node
	used      bool
}

func checkFingerprint(pass *analysis.Pass, fn *ast.FuncDecl, fieldOwner map[*types.Var]*types.Named, globalExempt map[*types.Var]bool) {
	subject := subjectOf(pass, fn)

	// Function-doc exemptions: //repro:nohash <Field|Type.Field> <reason>.
	var exempts []*funcExempt
	for _, d := range directives.Group(fn.Doc) {
		if d.Name != "nohash" {
			continue
		}
		target, reason, _ := strings.Cut(d.Arg, " ")
		reason = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(reason), "—"))
		if target == "" || reason == "" {
			pass.Reportf(d.Pos, "//repro:nohash exemption needs a field and a reason")
			continue
		}
		ex := &funcExempt{fieldName: target}
		if t, f, ok := strings.Cut(target, "."); ok {
			ex.typeName, ex.fieldName = t, f
		}
		exempts = append(exempts, ex)
	}

	// Scan the body: selector field reads, and whole struct values passed
	// to calls (which digest every field at once, e.g. json.Marshal(s)).
	used := map[*types.Var]bool{}
	whole := map[*types.Named]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if sel, ok := pass.TypesInfo.Selections[n]; ok && sel.Kind() == types.FieldVal {
				if v, ok := sel.Obj().(*types.Var); ok {
					used[v] = true
				}
			}
		case *ast.CallExpr:
			for _, arg := range n.Args {
				if nm := namedStruct(pass.TypesInfo.TypeOf(arg)); nm != nil {
					whole[nm] = true
				}
			}
		}
		return true
	})

	// The types this fingerprint must cover: the subject plus every
	// same-package struct it read a field of.
	cands := map[*types.Named]bool{}
	if subject != nil {
		cands[subject] = true
	}
	for v := range used {
		if own := fieldOwner[v]; own != nil {
			cands[own] = true
		}
	}
	ordered := make([]*types.Named, 0, len(cands))
	for nm := range cands {
		ordered = append(ordered, nm)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if (ordered[i] == subject) != (ordered[j] == subject) {
			return ordered[i] == subject
		}
		return ordered[i].Obj().Name() < ordered[j].Obj().Name()
	})

	fnName := displayName(fn)
	for _, nm := range ordered {
		st, ok := nm.Underlying().(*types.Struct)
		if !ok || whole[nm] {
			continue
		}
		foreign := nm.Obj().Pkg() != pass.Pkg
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == "_" || (foreign && !f.Exported()) {
				continue
			}
			if used[f] || globalExempt[f] {
				continue
			}
			if exemptMatches(exempts, nm, f, subject) {
				continue
			}
			pass.Reportf(fn.Name.Pos(),
				"%s does not hash %s.%s; hash it or annotate the field //repro:nohash <reason>",
				fnName, nm.Obj().Name(), f.Name())
		}
	}
	for _, ex := range exempts {
		if !ex.used {
			pass.Reportf(fn.Name.Pos(),
				"%s: stale //repro:nohash %s — it exempts no unhashed field",
				fnName, ex.display())
		}
	}
}

func (ex *funcExempt) display() string {
	if ex.typeName == "" {
		return ex.fieldName
	}
	return ex.typeName + "." + ex.fieldName
}

func exemptMatches(exempts []*funcExempt, nm *types.Named, f *types.Var, subject *types.Named) bool {
	for _, ex := range exempts {
		if ex.fieldName != f.Name() {
			continue
		}
		if ex.typeName == "" && nm != subject {
			continue
		}
		if ex.typeName != "" && ex.typeName != nm.Obj().Name() {
			continue
		}
		ex.used = true
		return true
	}
	return false
}

// subjectOf resolves the struct type a fingerprint function digests: its
// receiver, or failing that its first struct-typed parameter.
func subjectOf(pass *analysis.Pass, fn *ast.FuncDecl) *types.Named {
	if fn.Recv != nil && len(fn.Recv.List) > 0 {
		return namedStruct(pass.TypesInfo.TypeOf(fn.Recv.List[0].Type))
	}
	if fn.Type.Params != nil {
		for _, fl := range fn.Type.Params.List {
			if nm := namedStruct(pass.TypesInfo.TypeOf(fl.Type)); nm != nil {
				return nm
			}
		}
	}
	return nil
}

func displayName(fn *ast.FuncDecl) string {
	name := fn.Name.Name
	if fn.Recv != nil && len(fn.Recv.List) > 0 {
		t := fn.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if id, ok := t.(*ast.Ident); ok {
			name = id.Name + "." + name
		}
	}
	return name
}

// namedStruct unwraps pointers and aliases down to a named struct type.
func namedStruct(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	nm, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := nm.Underlying().(*types.Struct); !ok {
		return nil
	}
	return nm.Origin()
}
