package ir

import (
	"strings"
	"testing"
)

// figure1Nest rebuilds the paper's Figure 1 running example:
//
//	for i; for j; for k { d[i][k] = a[k]*b[k][j]; e[i][j][k] = c[j]*d[i][k]; }
func figure1Nest() *Nest {
	ni, nj, nk := 2, 20, 30
	a := NewArray("a", 8, nk)
	b := NewArray("b", 8, nk, nj)
	c := NewArray("c", 8, nj)
	d := NewArray("d", 8, ni, nk)
	e := NewArray("e", 8, ni, nj, nk)
	i, j, k := AffVar("i"), AffVar("j"), AffVar("k")
	return &Nest{
		Name: "figure1",
		Loops: []Loop{
			{Var: "i", Lo: 0, Hi: ni, Step: 1},
			{Var: "j", Lo: 0, Hi: nj, Step: 1},
			{Var: "k", Lo: 0, Hi: nk, Step: 1},
		},
		Body: []*Assign{
			{LHS: Ref(d, i, k), RHS: Bin(OpMul, Ref(a, k), Ref(b, k, j))},
			{LHS: Ref(e, i, j, k), RHS: Bin(OpMul, Ref(c, j), Ref(d, i, k))},
		},
	}
}

func TestArrayBasics(t *testing.T) {
	a := NewArray("m", 16, 4, 8)
	if a.Size() != 32 {
		t.Errorf("Size = %d, want 32", a.Size())
	}
	if a.Bits() != 512 {
		t.Errorf("Bits = %d, want 512", a.Bits())
	}
	flat, err := a.FlatIndex([]int{3, 7})
	if err != nil || flat != 31 {
		t.Errorf("FlatIndex(3,7) = %d,%v want 31,nil", flat, err)
	}
	if _, err := a.FlatIndex([]int{4, 0}); err == nil {
		t.Error("FlatIndex out of bounds should fail")
	}
	if _, err := a.FlatIndex([]int{1}); err == nil {
		t.Error("FlatIndex wrong arity should fail")
	}
}

func TestNewArrayPanics(t *testing.T) {
	cases := []func(){
		func() { NewArray("", 8, 4) },
		func() { NewArray("x", 0, 4) },
		func() { NewArray("x", 65, 4) },
		func() { NewArray("x", 8) },
		func() { NewArray("x", 8, 0) },
		func() { NewArray("x", 8, -3) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestLoopTrip(t *testing.T) {
	cases := []struct {
		l    Loop
		want int
	}{
		{Loop{Var: "i", Lo: 0, Hi: 10, Step: 1}, 10},
		{Loop{Var: "i", Lo: 0, Hi: 10, Step: 2}, 5},
		{Loop{Var: "i", Lo: 0, Hi: 9, Step: 2}, 5},
		{Loop{Var: "i", Lo: 3, Hi: 3, Step: 1}, 0},
		{Loop{Var: "i", Lo: 5, Hi: 3, Step: 1}, 0},
		{Loop{Var: "i", Lo: 0, Hi: 10, Step: 0}, 0},
	}
	for _, tc := range cases {
		if got := tc.l.Trip(); got != tc.want {
			t.Errorf("Trip(%+v) = %d, want %d", tc.l, got, tc.want)
		}
	}
}

func TestNestIterationCountAndDepth(t *testing.T) {
	n := figure1Nest()
	if n.Depth() != 3 {
		t.Errorf("Depth = %d, want 3", n.Depth())
	}
	if got := n.IterationCount(); got != 2*20*30 {
		t.Errorf("IterationCount = %d, want 1200", got)
	}
	if n.LoopIndex("j") != 1 {
		t.Errorf("LoopIndex(j) = %d, want 1", n.LoopIndex("j"))
	}
	if n.LoopIndex("z") != -1 {
		t.Errorf("LoopIndex(z) = %d, want -1", n.LoopIndex("z"))
	}
}

func TestNestArraysOrder(t *testing.T) {
	n := figure1Nest()
	var names []string
	for _, a := range n.Arrays() {
		names = append(names, a.Name)
	}
	want := []string{"a", "b", "d", "c", "e"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("Arrays order = %v, want %v", names, want)
	}
}

func TestRefGroupsMergeWriteAndRead(t *testing.T) {
	n := figure1Nest()
	groups := n.RefGroups()
	if len(groups) != 5 {
		t.Fatalf("got %d groups, want 5 (a,b,d,c,e): %+v", len(groups), groups)
	}
	byKey := map[string]*RefGroup{}
	for _, g := range groups {
		byKey[g.Key] = g
	}
	d := byKey["d[i][k]"]
	if d == nil {
		t.Fatal("missing group d[i][k]")
	}
	// d[i][k] is written by statement 0 and read by statement 1: one group.
	if d.Writes != 1 || d.Reads != 1 {
		t.Errorf("d[i][k] reads/writes = %d/%d, want 1/1", d.Reads, d.Writes)
	}
	e := byKey["e[i][j][k]"]
	if e == nil || e.Writes != 1 || e.Reads != 0 {
		t.Errorf("e group wrong: %+v", e)
	}
}

func TestRefUsesOrder(t *testing.T) {
	n := figure1Nest()
	uses := n.RefUses()
	var got []string
	for _, u := range uses {
		s := u.Ref.Key()
		if u.IsWrite {
			s += "(w)"
		}
		got = append(got, s)
	}
	want := "a[k],b[k][j],d[i][k](w),c[j],d[i][k],e[i][j][k](w)"
	if strings.Join(got, ",") != want {
		t.Errorf("RefUses = %s, want %s", strings.Join(got, ","), want)
	}
}

func TestExprString(t *testing.T) {
	x := NewArray("x", 8, 10)
	e := Bin(OpAdd, Bin(OpMul, Ref(x, AffVar("i")), Lit(3)), LoopVar("i"))
	if got, want := e.String(), "((x[i] * 3) + i)"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	m := Bin(OpMin, Lit(1), Lit(2))
	if got, want := m.String(), "min(1, 2)"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestNestString(t *testing.T) {
	s := figure1Nest().String()
	for _, frag := range []string{
		"for (i = 0; i < 2; i++) {",
		"for (k = 0; k < 30; k++) {",
		"d[i][k] = (a[k] * b[k][j]);",
		"e[i][j][k] = (c[j] * d[i][k]);",
	} {
		if !strings.Contains(s, frag) {
			t.Errorf("nest printout missing %q:\n%s", frag, s)
		}
	}
}

func TestOpKindString(t *testing.T) {
	if OpMul.String() != "*" || OpShl.String() != "<<" || OpLe.String() != "<=" {
		t.Error("operator spellings wrong")
	}
	if OpKind(99).String() != "op(99)" {
		t.Error("unknown operator spelling wrong")
	}
	if OpKind(99).Valid() || OpKind(-1).Valid() {
		t.Error("Valid should reject out-of-range operators")
	}
	if !OpAdd.Valid() || !OpMax.Valid() {
		t.Error("Valid should accept defined operators")
	}
}

// TestRefKeyAllocFree: the key is rendered once, when the reference is
// built, so the per-point lookups that group references by it are free.
func TestRefKeyAllocFree(t *testing.T) {
	r := Ref(NewArray("b", 8, 30, 20), AffVar("k"), AffVar("j").Add(AffConst(1)))
	var key string
	if allocs := testing.AllocsPerRun(100, func() { key = r.Key() }); allocs != 0 {
		t.Errorf("ArrayRef.Key allocates %v times, want 0", allocs)
	}
	if key != "b[k][j + 1]" || key != r.String() {
		t.Errorf("Key() = %q, String() = %q, want b[k][j + 1]", key, r.String())
	}
}

// TestRefClone: a clone owns its index storage, a changed reference gets
// its own key, and the original's key and rendering do not change.
func TestRefClone(t *testing.T) {
	x := NewArray("x", 8, 10, 10)
	r := Ref(x, AffVar("i"), AffVar("j").Add(AffConst(1)))
	key, text := r.Key(), r.String()
	if key != text {
		t.Fatalf("key %q != rendering %q", key, text)
	}
	c := r.Clone()
	if c.Key() != key || c.String() != text {
		t.Fatalf("clone key %q, rendering %q; want %q", c.Key(), c.String(), key)
	}
	if c.Array != r.Array {
		t.Error("clone should share the Array object")
	}
	// Writing into the clone's own index storage must not reach the
	// original.
	c.index[0].Coeffs["i"] = 7
	c.index[1].Const = 9
	if r.String() != text {
		t.Errorf("clone shares index storage with original: %s", r)
	}
	// A changed reference is a new one, with its own key.
	moved := Ref(r.Array, r.Index()[0].Add(AffConst(5)), r.Index()[1])
	if moved.Key() == key || moved.Key() != moved.String() {
		t.Errorf("changed reference key %q (rendering %q), original %q", moved.Key(), moved.String(), key)
	}
	if r.Key() != key || r.String() != text {
		t.Errorf("original changed to key %q, rendering %q; want %q", r.Key(), r.String(), key)
	}
	// Ref copies its arguments: the caller's affines stay the caller's.
	ix := AffVar("i")
	own := Ref(NewArray("y", 8, 10), ix)
	ix.Coeffs["i"] = 3
	if own.String() != "y[i]" || own.Key() != own.String() {
		t.Errorf("Ref shares index storage with its caller: %s (key %q)", own, own.Key())
	}
}
