package sched

// The closed-form class weights against the position-by-position walk they
// replaced: every innermost position classified through HitInner, one
// signature per position, each counted once per combination of outer loop
// values.

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/dsl"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/kernels"
	"repro/internal/reuse"
	"repro/internal/scalarrepl"
)

// innerHitVectors records, per plan entry, the steady-state register hit
// outcome at each innermost loop position, asking HitInner position by
// position. It is the oracle of the entries' hit thresholds
// (scalarrepl.Entry.InnerHits): classWeightsByPosition and the fused walker
// (walker_test.go) classify iterations and gate replays with it. Nil for
// depth-0 nests.
func innerHitVectors(nest *ir.Nest, order []*scalarrepl.Entry) [][]bool {
	depth := nest.Depth()
	if depth == 0 {
		return nil
	}
	inner := nest.Loops[depth-1]
	hitAt := make([][]bool, len(order))
	for i, e := range order {
		hitAt[i] = make([]bool, inner.Trip())
		pos := 0
		for v := inner.Lo; v < inner.Hi; v += inner.Step {
			hitAt[i][pos] = e.HitInner(v)
			pos++
		}
	}
	return hitAt
}

// classWeightsByPosition is the walk classWeights replaced: it writes one
// signature per innermost position and adds the outer trip product to its
// count.
func classWeightsByPosition(nest *ir.Nest, order []*scalarrepl.Entry) map[string]int {
	counts := map[string]int{}
	depth := nest.Depth()
	if depth == 0 {
		sig := make([]byte, len(order))
		for i := range sig {
			sig[i] = '0'
		}
		counts[string(sig)] = 1
		return counts
	}
	outer := 1
	for _, l := range nest.Loops[:depth-1] {
		outer *= l.Trip()
	}
	if outer == 0 {
		return counts
	}
	hitAt := innerHitVectors(nest, order)
	sig := make([]byte, len(order))
	for pos := range nest.Loops[depth-1].Trip() {
		for i := range order {
			sig[i] = '0'
			if hitAt[i][pos] {
				sig[i] = '1'
			}
		}
		counts[string(sig)] += outer
	}
	return counts
}

// checkClassWeights asserts that the closed form and the walk weight one
// plan's classes identically.
func checkClassWeights(t *testing.T, label string, nest *ir.Nest, plan *scalarrepl.Plan) {
	t.Helper()
	got, want := classWeights(nest, plan.Order()), classWeightsByPosition(nest, plan.Order())
	if !maps.Equal(got, want) {
		t.Fatalf("%s: classWeights = %v, position walk %v\n%s", label, got, want, dsl.Format(nest))
	}
}

// randomBeta draws β in [1, ν+2] per reference: below the staging
// threshold, between it and ν, and past ν, so coverage ranges from 0 to
// more than the innermost window.
func randomBeta(rng *rand.Rand, infos []*reuse.Info) []int {
	beta := make([]int, len(infos))
	for i, inf := range infos {
		beta[i] = 1 + rng.Intn(inf.Nu+2)
	}
	return beta
}

// TestClassWeightsMatchPositionWalkOnKernels: every Table-1 kernel under
// every allocator at budgets 16, 32, 64 and 128, and under random β
// vectors.
func TestClassWeightsMatchPositionWalkOnKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, k := range kernels.All() {
		var infos []*reuse.Info
		for _, budget := range []int{16, 32, 64, 128} {
			prob, err := core.NewProblem(k.Nest, budget, dfg.DefaultLatencies())
			if err != nil {
				t.Fatalf("%s at %d: %v", k.Name, budget, err)
			}
			infos = prob.Infos
			for _, alg := range core.All() {
				alloc, err := alg.Allocate(prob)
				if err != nil {
					t.Fatalf("%s/%s at %d: %v", k.Name, alg.Name(), budget, err)
				}
				plan, err := scalarrepl.NewPlan(k.Nest, infos, alloc.Beta)
				if err != nil {
					t.Fatal(err)
				}
				checkClassWeights(t, fmt.Sprintf("%s/%s at %d", k.Name, alg.Name(), budget), k.Nest, plan)
			}
		}
		for trial := range 20 {
			beta := randomBeta(rng, infos)
			plan, err := scalarrepl.NewPlan(k.Nest, infos, beta)
			if err != nil {
				t.Fatal(err)
			}
			checkClassWeights(t, fmt.Sprintf("%s/random β %d %v", k.Name, trial, beta), k.Nest, plan)
		}
	}
}

// TestClassWeightsMatchPositionWalkOnRandomNests: 600 irgen nests biased
// toward interior zero coefficients, under random β. Every second nest has
// its innermost loop mirrored (negative innermost coefficients), every
// third is cut to a one-trip innermost loop, and irgen draws Step 2 for a
// quarter of its loops. The test fails unless each of those shapes,
// coverage larger than the window, and an entry that hits in only part of
// its sweep occurred.
func TestClassWeightsMatchPositionWalkOnRandomNests(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	seen := map[string]int{}
	for trial := range 600 {
		nest := irgen.Nest(rng, irgen.Config{InteriorZeroProb: 0.35})
		if trial%2 == 1 {
			nest = mirrorInner(t, nest)
		}
		if trial%3 == 2 {
			nest = oneTripInner(t, nest)
		}
		infos, err := reuse.Analyze(nest)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, dsl.Format(nest))
		}
		plan, err := scalarrepl.NewPlan(nest, infos, randomBeta(rng, infos))
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, dsl.Format(nest))
		}
		checkClassWeights(t, fmt.Sprintf("trial %d", trial), nest, plan)

		depth := nest.Depth()
		inner := nest.Loops[depth-1]
		if inner.Step > 1 {
			seen["step > 1"]++
		}
		if inner.Trip() == 1 {
			seen["one-trip innermost"]++
		}
		for _, e := range plan.Order() {
			aff := e.FlatAffine()
			if aff.Coeff(inner.Var) < 0 {
				seen["negative coefficient"]++
			}
			for _, l := range nest.Loops[:depth-1] {
				if aff.Coeff(l.Var) == 0 {
					seen["interior zero"]++
				}
			}
			if e.Coverage > e.WindowSize() {
				seen["coverage over window"]++
			}
			if h := e.InnerHits(); h > 0 && h < inner.Trip() {
				seen["hits in part of the sweep"]++
			}
		}
	}
	t.Logf("shapes exercised: %v", seen)
	for _, shape := range []string{"step > 1", "one-trip innermost", "negative coefficient", "interior zero", "coverage over window", "hits in part of the sweep"} {
		if seen[shape] == 0 {
			t.Errorf("no trial exercised %s", shape)
		}
	}
}

// mirrorInner rewrites every array index of the nest through k → Lo+Last−k
// for the innermost variable k. The map sends the loop's values onto
// themselves, so every index keeps its range and the nest stays valid, and
// every reference that moved with k now moves against it.
func mirrorInner(t *testing.T, n *ir.Nest) *ir.Nest {
	t.Helper()
	inner := n.Loops[n.Depth()-1]
	m := 2*inner.Lo + (inner.Trip()-1)*inner.Step
	ref := func(r *ir.ArrayRef) *ir.ArrayRef {
		idx := make([]ir.Affine, len(r.Index()))
		for d, a := range r.Index() {
			c := a.Coeff(inner.Var)
			idx[d] = a.Add(ir.AffTerm(-2*c, inner.Var, c*m))
		}
		return ir.Ref(r.Array, idx...)
	}
	var expr func(ir.Expr) ir.Expr
	expr = func(e ir.Expr) ir.Expr {
		switch e := e.(type) {
		case *ir.ArrayRef:
			return ref(e)
		case *ir.BinOp:
			return ir.Bin(e.Op, expr(e.L), expr(e.R))
		}
		return e
	}
	body := make([]*ir.Assign, len(n.Body))
	for i, st := range n.Body {
		body[i] = &ir.Assign{LHS: ref(st.LHS), RHS: expr(st.RHS)}
	}
	out, err := ir.NewNest(n.Name, slices.Clone(n.Loops), body)
	if err != nil {
		t.Fatalf("mirrored nest: %v\n%s", err, dsl.Format(n))
	}
	return out
}

// oneTripInner cuts the nest's innermost loop to its first iteration. The
// arrays keep the shapes sized for the full loop.
func oneTripInner(t *testing.T, n *ir.Nest) *ir.Nest {
	t.Helper()
	loops := slices.Clone(n.Loops)
	loops[len(loops)-1].Hi = loops[len(loops)-1].Lo + 1
	out, err := ir.NewNest(n.Name, loops, n.Body)
	if err != nil {
		t.Fatalf("one-trip nest: %v\n%s", err, dsl.Format(n))
	}
	return out
}
