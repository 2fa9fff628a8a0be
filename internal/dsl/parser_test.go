package dsl

import (
	"strings"
	"testing"

	"repro/internal/ir"
)

const figure1Src = `
kernel figure1;
array a[30]:8;
array b[30][20]:8;
array c[20]:8;
array d[2][30]:8;
array e[2][20][30]:8;
for i = 0..2 {
  for j = 0..20 {
    for k = 0..30 {
      d[i][k] = a[k] * b[k][j];
      e[i][j][k] = c[j] * d[i][k];
    }
  }
}
`

func TestParseFigure1(t *testing.T) {
	n, err := Parse(figure1Src)
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "figure1" {
		t.Errorf("name = %q", n.Name)
	}
	if n.Depth() != 3 || n.IterationCount() != 1200 {
		t.Errorf("depth=%d iters=%d", n.Depth(), n.IterationCount())
	}
	if len(n.Body) != 2 {
		t.Fatalf("body has %d statements", len(n.Body))
	}
	if got := n.Body[0].String(); got != "d[i][k] = (a[k] * b[k][j]);" {
		t.Errorf("stmt 0 = %q", got)
	}
	groups := n.RefGroups()
	if len(groups) != 5 {
		t.Errorf("got %d ref groups, want 5", len(groups))
	}
}

func TestParseRoundTripSemantics(t *testing.T) {
	// The parsed nest must compute the same values as the hand-built IR.
	n1, err := Parse(figure1Src)
	if err != nil {
		t.Fatal(err)
	}
	ni, nj, nk := 2, 20, 30
	a := ir.NewArray("a", 8, nk)
	b := ir.NewArray("b", 8, nk, nj)
	c := ir.NewArray("c", 8, nj)
	d := ir.NewArray("d", 8, ni, nk)
	e := ir.NewArray("e", 8, ni, nj, nk)
	iv, jv, kv := ir.AffVar("i"), ir.AffVar("j"), ir.AffVar("k")
	n2 := &ir.Nest{
		Name: "figure1",
		Loops: []ir.Loop{
			{Var: "i", Lo: 0, Hi: ni, Step: 1},
			{Var: "j", Lo: 0, Hi: nj, Step: 1},
			{Var: "k", Lo: 0, Hi: nk, Step: 1},
		},
		Body: []*ir.Assign{
			{LHS: ir.Ref(d, iv, kv), RHS: ir.Bin(ir.OpMul, ir.Ref(a, kv), ir.Ref(b, kv, jv))},
			{LHS: ir.Ref(e, iv, jv, kv), RHS: ir.Bin(ir.OpMul, ir.Ref(c, jv), ir.Ref(d, iv, kv))},
		},
	}
	s1, s2 := ir.NewStore(), ir.NewStore()
	s1.RandomizeInputs(n1, 11)
	s2.RandomizeInputs(n2, 11)
	if _, err := ir.Interp(n1, s1); err != nil {
		t.Fatal(err)
	}
	if _, err := ir.Interp(n2, s2); err != nil {
		t.Fatal(err)
	}
	if eq, diff := s1.Equal(s2); !eq {
		t.Fatalf("parsed vs hand-built semantics differ: %s", diff)
	}
}

func TestParseAffineIndexForms(t *testing.T) {
	src := `
array x[100]:8;
array y[10]:8;
for i = 0..10 {
  for k = 0..4 {
    y[i] = y[i] + x[2*i + k + 1];
  }
}
`
	n, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	uses := n.RefUses()
	var xRef *ir.ArrayRef
	for _, u := range uses {
		if u.Ref.Array.Name == "x" {
			xRef = u.Ref
		}
	}
	if xRef == nil {
		t.Fatal("no x reference")
	}
	ix := xRef.Index()[0]
	if ix.Coeff("i") != 2 || ix.Coeff("k") != 1 || ix.Const != 1 {
		t.Errorf("x index parsed as %v, want 2*i + k + 1", ix)
	}
}

func TestParseStepAndBounds(t *testing.T) {
	src := `
array x[64]:8;
array y[16]:8;
for i = 0..31 step 2 {
  y[i * 1 - i + 0] = x[i]; // exercise affine arithmetic: index 0
}
`
	// y[0] written repeatedly is silly but legal; index folds to constant 0.
	n, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if n.Loops[0].Step != 2 || n.Loops[0].Trip() != 16 {
		t.Errorf("loop = %+v", n.Loops[0])
	}
	if !n.Body[0].LHS.Index()[0].IsConst() {
		t.Errorf("index should fold to a constant, got %v", n.Body[0].LHS.Index()[0])
	}
}

func TestParseExprPrecedence(t *testing.T) {
	src := `
array x[8]:8;
array y[8]:8;
for i = 0..8 {
  y[i] = 1 + x[i] * 2 << 1 == 4 & 3 | x[i] ^ 2;
}
`
	n, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// | is lowest: ((...) | (x[i] ^ 2)); * binds tighter than +; << tighter than ==.
	got := n.Body[0].RHS.String()
	want := "((((1 + (x[i] * 2)) << 1) == 4) & 3) | (x[i] ^ 2)"
	if got != "("+want+")" {
		t.Errorf("precedence parse = %q, want %q", got, "("+want+")")
	}
}

func TestParseMinMaxCalls(t *testing.T) {
	src := `
array x[8]:8;
array y[8]:8;
for i = 0..8 {
  y[i] = min(x[i], max(i, 3));
}
`
	n, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := n.Body[0].RHS.String(), "min(x[i], max(i, 3))"; got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		frag string
	}{
		{"bad char", "array x[4]:8; $", "unexpected character"},
		{"missing semicolon", "array x[4]:8\nfor i = 0..4 { x[i] = 1; }", "expected \";\""},
		{"array redeclared", "array x[4]:8; array x[4]:8; for i=0..4 { x[i]=1; }", "redeclared"},
		{"no dims", "array x:8; for i=0..4 { x=1; }", "no dimensions"},
		{"bad width", "array x[4]:99; for i=0..4 { x[i]=1; }", "out of range"},
		{"zero dim", "array x[0]:8; for i=0..4 { x[i]=1; }", "must be positive"},
		{"no loop", "array x[4]:8; x[0] = 1;", `expected "for"`},
		{"unknown array", "array x[4]:8; for i=0..4 { z[i]=1; }", "unknown array"},
		{"unknown ident expr", "array x[4]:8; for i=0..4 { x[i]=q; }", "unknown identifier"},
		{"arity", "array x[4][4]:8; for i=0..4 { x[i]=1; }", "needs 2 indices"},
		{"non-affine product", "array x[16]:8; for i=0..4 { for j=0..4 { x[i*j]=1; } }", "non-affine"},
		{"shadow", "array x[4]:8; for i=0..4 { for i=0..4 { x[i]=1; } }", "shadows"},
		{"var is array", "array i[4]:8; for i=0..4 { i[i]=1; }", "collides"},
		{"index out of scope", "array x[4]:8; for i=0..4 { x[z]=1; }", "not an enclosing loop"},
		{"empty body", "array x[4]:8; for i=0..4 { }", "empty"},
		{"trailing", "array x[4]:8; for i=0..4 { x[i]=1; } garbage", "trailing"},
		{"stmt after inner loop", "array x[4]:8; for i=0..4 { for j=0..4 { x[i]=1; } x[i]=2; }", `expected "}"`},
		{"bounds", "array x[4]:8; for i=0..9 { x[i]=1; }", "bounds"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.frag)
		}
	}
}

func TestParseErrorPositions(t *testing.T) {
	_, err := Parse("array x[4]:8;\nfor i = 0..4 {\n  x[i] = $;\n}\n")
	if err == nil {
		t.Fatal("expected error")
	}
	perr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T, want *dsl.Error", err)
	}
	if perr.Line != 3 {
		t.Errorf("error line = %d, want 3 (%v)", perr.Line, perr)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse should panic on bad input")
		}
	}()
	MustParse("not a kernel")
}

func TestParseComments(t *testing.T) {
	src := `
// leading comment
array x[4]:8; // trailing comment
for i = 0..4 { // loop
  x[i] = 1; // stmt
}
`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestParseDefaultWidth(t *testing.T) {
	n, err := Parse("array x[4];\nfor i = 0..4 { x[i] = 1; }")
	if err != nil {
		t.Fatal(err)
	}
	if n.Arrays()[0].ElemBits != 8 {
		t.Errorf("default width = %d, want 8", n.Arrays()[0].ElemBits)
	}
}
