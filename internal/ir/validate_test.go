package ir

import (
	"strings"
	"testing"
)

func validNest() *Nest {
	x := NewArray("x", 8, 40)
	y := NewArray("y", 8, 10)
	return &Nest{
		Name:  "valid",
		Loops: []Loop{{Var: "i", Lo: 0, Hi: 10, Step: 1}, {Var: "k", Lo: 0, Hi: 4, Step: 1}},
		Body: []*Assign{
			{LHS: Ref(y, AffVar("i")), RHS: Bin(OpAdd, Ref(y, AffVar("i")), Ref(x, AffVar("i").Add(AffVar("k"))))},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := validNest().Validate(); err != nil {
		t.Fatalf("valid nest rejected: %v", err)
	}
	if err := figure1Nest().Validate(); err != nil {
		t.Fatalf("figure-1 nest rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	x := NewArray("x", 8, 40)
	y := NewArray("y", 8, 10)
	mk := func(mut func(*Nest)) *Nest {
		n := validNest()
		mut(n)
		return n
	}
	cases := []struct {
		name string
		nest *Nest
		frag string
	}{
		{"no loops", mk(func(n *Nest) { n.Loops = nil }), "no loops"},
		{"empty body", mk(func(n *Nest) { n.Body = nil }), "empty body"},
		{"dup var", mk(func(n *Nest) { n.Loops[1].Var = "i" }), "duplicate loop variable"},
		{"empty var", mk(func(n *Nest) { n.Loops[0].Var = "" }), "empty variable"},
		{"bad step", mk(func(n *Nest) { n.Loops[0].Step = 0 }), "non-positive step"},
		{"zero trip", mk(func(n *Nest) { n.Loops[0].Hi = 0 }), "zero trip"},
		{"nil lhs", mk(func(n *Nest) { n.Body[0].LHS = nil }), "nil LHS"},
		{"nil rhs", mk(func(n *Nest) { n.Body[0].RHS = nil }), "nil RHS"},
		{
			"unknown index var",
			mk(func(n *Nest) { n.Body[0].RHS = Ref(x, AffVar("z")) }),
			"non-loop variable",
		},
		{
			"unknown loop var read",
			mk(func(n *Nest) { n.Body[0].RHS = LoopVar("z") }),
			"unknown variable",
		},
		{
			"out of bounds high",
			mk(func(n *Nest) { n.Body[0].RHS = Ref(y, AffVar("i").Add(AffVar("k"))) }),
			"bounds",
		},
		{
			"out of bounds low",
			mk(func(n *Nest) { n.Body[0].RHS = Ref(y, AffVar("i").Sub(AffConst(1))) }),
			"bounds",
		},
		{
			"arity mismatch",
			mk(func(n *Nest) { n.Body[0].RHS = Ref(x, AffVar("i"), AffVar("k")) }),
			"indices",
		},
		{
			"invalid op",
			mk(func(n *Nest) { n.Body[0].RHS = Bin(OpKind(77), Lit(1), Lit(2)) }),
			"invalid operator",
		},
		{
			"same name distinct arrays",
			mk(func(n *Nest) {
				x2 := NewArray("x", 8, 40)
				n.Body = append(n.Body, &Assign{LHS: Ref(y, AffVar("i")), RHS: Ref(x2, AffVar("i"))})
			}),
			"two distinct Array objects",
		},
	}
	for _, tc := range cases {
		err := tc.nest.Validate()
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.frag)
		}
	}
}

func TestValidateStridedAccessInBounds(t *testing.T) {
	// Decimation-style access x[2i+k] must validate against the true extreme.
	x := NewArray("x", 8, 25)
	y := NewArray("y", 8, 10)
	n := &Nest{
		Name:  "dec",
		Loops: []Loop{{Var: "i", Lo: 0, Hi: 10, Step: 1}, {Var: "k", Lo: 0, Hi: 4, Step: 1}},
		Body: []*Assign{
			{LHS: Ref(y, AffVar("i")), RHS: Ref(x, AffTerm(2, "i", 0).Add(AffVar("k")))},
		},
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("strided nest rejected: %v", err)
	}
	// Shrink the array below the maximum index 2*9+3 = 21: must now fail.
	small := NewArray("x", 8, 21)
	n.Body[0].RHS = Ref(small, AffTerm(2, "i", 0).Add(AffVar("k")))
	if err := n.Validate(); err == nil {
		t.Fatal("expected bounds violation for x[21]")
	}
}

// TestNewNestValidates: the constructor must reject the malformed shapes
// that would hang downstream iteration-space walkers — above all zero and
// negative loop steps, which a bare literal does not guard against.
func TestNewNestValidates(t *testing.T) {
	a := NewArray("a", 8, 16)
	body := []*Assign{{LHS: Ref(a, AffVar("i")), RHS: Lit(1)}}
	loops := []Loop{{Var: "i", Lo: 0, Hi: 8, Step: 1}}
	n, err := NewNest("ok", loops, body)
	if err != nil || n == nil {
		t.Fatalf("NewNest rejected a valid nest: %v", err)
	}
	// The constructor copies its slices: mutating the caller's loops must
	// not corrupt the validated nest.
	loops[0].Step = 0
	if n.Loops[0].Step != 1 {
		t.Fatal("NewNest aliased the caller's loop slice")
	}
	for _, step := range []int{0, -2} {
		if _, err := NewNest("bad", []Loop{{Var: "i", Lo: 0, Hi: 8, Step: step}}, body); err == nil {
			t.Fatalf("NewNest accepted step %d", step)
		}
	}
	if _, err := NewNest("empty", nil, body); err == nil {
		t.Fatal("NewNest accepted a nest with no loops")
	}
}
