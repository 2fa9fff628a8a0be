package reuse

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/kernels"
)

// distinctEnumerated is the brute-force counter: walk the whole
// iteration sub-space of loops l..depth-1, outer loops at their lower
// bounds, and collect flattened addresses. It is the differential oracle
// for distinctClosedForm; production never enumerates.
func distinctEnumerated(n *ir.Nest, r *ir.ArrayRef, l int) int {
	env := map[string]int{}
	for i := 0; i < l; i++ {
		env[n.Loops[i].Var] = n.Loops[i].Lo
	}
	seen := map[int]struct{}{}
	var walk func(depth int)
	walk = func(depth int) {
		if depth == n.Depth() {
			flat := 0
			for dim, ix := range r.Index() {
				flat = flat*r.Array.Dims[dim] + ix.Eval(env)
			}
			seen[flat] = struct{}{}
			return
		}
		loop := n.Loops[depth]
		for v := loop.Lo; v < loop.Hi; v += loop.Step {
			env[loop.Var] = v
			walk(depth + 1)
		}
	}
	walk(l)
	return len(seen)
}

// diffAllLevels checks one nest: for every reference group and every
// level, the closed form must equal the enumerating oracle.
func diffAllLevels(t *testing.T, n *ir.Nest) {
	t.Helper()
	for _, g := range n.RefGroups() {
		flat := flatAffine(g.Ref)
		for l := 0; l <= n.Depth(); l++ {
			want := distinctEnumerated(n, g.Ref, l)
			if got := distinctClosedForm(n, flat, l); got != want {
				t.Errorf("%s: %s level %d: closed form %d, oracle %d", n.Name, g.Key, l, got, want)
			}
		}
	}
}

// TestClosedFormMatchesOracleKernels: the Table-1 kernels, reference by
// reference and level by level.
func TestClosedFormMatchesOracleKernels(t *testing.T) {
	for _, k := range kernels.All() {
		t.Run(k.Name, func(t *testing.T) { diffAllLevels(t, k.Nest) })
	}
}

// TestClosedFormEdgeCases: the shapes the arithmetic-progression reduction
// has to get exactly right — negative coefficients, strided loops,
// cross-dimension skew, degenerate single-trip loops, and coprime strides
// that exercise the two-progression overlap formula.
func TestClosedFormEdgeCases(t *testing.T) {
	mk := func(name string, loops []ir.Loop, arr *ir.Array, out *ir.Array, outIdx []ir.Affine, idx ...ir.Affine) *ir.Nest {
		t.Helper()
		n, err := ir.NewNest(name, loops, []*ir.Assign{{
			LHS: ir.Ref(out, outIdx...),
			RHS: ir.Ref(arr, idx...),
		}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return n
	}
	i8 := ir.Loop{Var: "i", Lo: 0, Hi: 8, Step: 1}
	j4 := ir.Loop{Var: "j", Lo: 0, Hi: 4, Step: 1}

	cases := []*ir.Nest{
		// Negative coefficient: x[7 - i + j] mirrors the progression.
		mk("negcoef",
			[]ir.Loop{i8, j4},
			ir.NewArray("x", 8, 16), ir.NewArray("o", 8, 8, 4),
			[]ir.Affine{ir.AffVar("i"), ir.AffVar("j")},
			ir.AffTerm(-1, "i", 7).Add(ir.AffVar("j"))),
		// Step > 1: i walks 0,3,...,15 — stride 3 progression.
		mk("strided",
			[]ir.Loop{{Var: "i", Lo: 0, Hi: 16, Step: 3}, j4},
			ir.NewArray("x", 8, 20), ir.NewArray("o", 8, 16, 4),
			[]ir.Affine{ir.AffVar("i"), ir.AffVar("j")},
			ir.AffVar("i").Add(ir.AffVar("j"))),
		// Multi-dimensional skew: b[i+j][j] couples the dimensions, so the
		// count must come from the flattened index, not a per-dim product.
		mk("skew",
			[]ir.Loop{i8, j4},
			ir.NewArray("b", 8, 12, 4), ir.NewArray("o", 8, 8, 4),
			[]ir.Affine{ir.AffVar("i"), ir.AffVar("j")},
			ir.AffVar("i").Add(ir.AffVar("j")), ir.AffVar("j")),
		// Degenerate single-trip loop: j contributes nothing.
		mk("singletrip",
			[]ir.Loop{i8, {Var: "j", Lo: 5, Hi: 6, Step: 1}},
			ir.NewArray("x", 8, 16), ir.NewArray("o", 8, 8, 1),
			[]ir.Affine{ir.AffVar("i"), ir.AffConst(0)},
			ir.AffVar("i").Add(ir.AffVar("j")).Sub(ir.AffConst(5))),
		// Coprime strides 3 and 5: irreducible progressions, exact overlap.
		mk("coprime",
			[]ir.Loop{{Var: "i", Lo: 0, Hi: 10, Step: 1}, j4},
			ir.NewArray("x", 8, 64), ir.NewArray("o", 8, 10, 4),
			[]ir.Affine{ir.AffVar("i"), ir.AffVar("j")},
			ir.AffTerm(3, "i", 0).Add(ir.AffTerm(5, "j", 0))),
	}
	for _, n := range cases {
		t.Run(n.Name, func(t *testing.T) { diffAllLevels(t, n) })
	}

	// Pin the coprime case's whole-nest footprint: {3i+5j : i<10, j<4}
	// loses one element per (i,j) -> (i+5, j-3) chain edge — 5·1 of them.
	coprime := cases[len(cases)-1]
	if got := distinctClosedForm(coprime, flatAffine(coprime.RefGroups()[0].Ref), 0); got != 35 {
		t.Errorf("coprime footprint: got %d, want 35", got)
	}
}

// TestClosedFormZeroTrip: a zero-trip loop empties the sub-space. Such
// nests do not validate (Analyze never sees them), but the counter must
// still agree with the oracle rather than divide the space away.
func TestClosedFormZeroTrip(t *testing.T) {
	x := ir.NewArray("x", 8, 16)
	n := &ir.Nest{
		Name:  "zerotrip",
		Loops: []ir.Loop{{Var: "i", Lo: 0, Hi: 4, Step: 1}, {Var: "j", Lo: 3, Hi: 3, Step: 1}},
		Body: []*ir.Assign{{
			LHS: ir.Ref(x, ir.AffVar("i")),
			RHS: ir.Ref(x, ir.AffVar("i").Add(ir.AffVar("j"))),
		}},
	}
	r := n.Body[0].RHS.(*ir.ArrayRef)
	for l := 0; l <= n.Depth(); l++ {
		want := distinctEnumerated(n, r, l)
		if got := distinctClosedForm(n, flatAffine(r), l); got != want {
			t.Errorf("level %d: closed form %d, oracle %d", l, got, want)
		}
	}
}

// TestClosedFormRandomNests: irgen nests, including strided loops (irgen
// assigns Step=2 with probability 1/4) and interior-zero coefficients,
// diffed against the oracle.
func TestClosedFormRandomNests(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep")
	}
	cfgs := []irgen.Config{
		{},
		{MaxDepth: 4, MaxTrip: 5},
		{InteriorZeroProb: 0.5},
	}
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := irgen.Nest(rng, cfgs[seed%int64(len(cfgs))])
		diffAllLevels(t, n)
	}
}

// progressionNest builds a one-statement nest whose read x[Σ c_d·v_d]
// walks one progression per loop: loop d runs trips[d] unit steps and
// carries coefficient coefs[d] ≥ 0.
func progressionNest(t *testing.T, name string, coefs, trips []int) *ir.Nest {
	t.Helper()
	var loops []ir.Loop
	var idx ir.Affine
	size := 1
	for d, c := range coefs {
		v := fmt.Sprintf("v%d", d)
		loops = append(loops, ir.Loop{Var: v, Lo: 0, Hi: trips[d], Step: 1})
		idx = idx.Add(ir.AffTerm(c, v, 0))
		size += c * (trips[d] - 1)
	}
	n, err := ir.NewNest(name, loops, []*ir.Assign{{
		LHS: ir.Ref(ir.NewArray("o", 8, 1), ir.AffConst(0)),
		RHS: ir.Ref(ir.NewArray("x", 8, size), idx),
	}})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return n
}

// TestSumsetCases: hand-built nests whose footprints need the sumset of
// three or more irreducible progressions, each checked level by level
// against the enumerator.
func TestSumsetCases(t *testing.T) {
	cases := []struct {
		name         string
		coefs, trips []int
	}{
		{"three coprime", []int{3, 5, 7}, []int{4, 5, 6}},
		{"four coprime", []int{7, 11, 13, 17}, []int{3, 4, 3, 5}},
		// 1·3 and 1·3 merge into 0..4, which absorbs stride 5 into 0..14;
		// neither unit progression alone could fold it. 17 and 23 stay
		// irreducible beside it.
		{"fold after merge", []int{1, 1, 5, 17, 23}, []int{3, 3, 3, 3, 2}},
		{"trips of 1 and 2", []int{3, 5, 7, 11}, []int{1, 2, 2, 2}},
		{"longest not first", []int{4, 6, 9}, []int{3, 2, 12}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { diffAllLevels(t, progressionNest(t, tc.name, tc.coefs, tc.trips)) })
	}
}

// TestSumsetSizeMatchesBruteForce: sumsetSize against a set of every sum
// on random lists of three to five progressions with small strides, so
// shared residues, duplicate sums and overlapping runs all occur.
func TestSumsetSizeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		aps := make([]progression, 3+rng.Intn(3))
		for i := range aps {
			aps[i] = progression{g: 1 + rng.Intn(12), m: 2 + rng.Intn(6)}
		}
		seen := map[int]bool{0: true}
		for _, a := range aps {
			next := map[int]bool{}
			for s := range seen {
				for k := range a.m {
					next[s+k*a.g] = true
				}
			}
			seen = next
		}
		if got := sumsetSize(aps); got != len(seen) {
			t.Fatalf("%v: sumsetSize %d, brute force %d", aps, got, len(seen))
		}
	}
}
