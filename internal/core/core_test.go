package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dfg"
	"repro/internal/dsl"
	"repro/internal/irgen"
	"repro/internal/kernels"
	"repro/internal/reuse"
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

func figure1Problem(t *testing.T, rmax int) *Problem {
	t.Helper()
	p, err := NewProblem(dsl.MustParse(figure1Src), rmax, dfg.DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func betaByArray(a *Allocation) map[string]int {
	out := map[string]int{}
	for i, inf := range a.infos {
		out[inf.Key()[:strings.Index(inf.Key(), "[")]] = a.Beta[i]
	}
	return out
}

// TestFRRAPaperExample pins the paper's FR-RA outcome for Figure 1 with 64
// registers: β = {a:30, b:1, c:20, d:1, e:1}.
func TestFRRAPaperExample(t *testing.T) {
	p := figure1Problem(t, 64)
	a, err := (FRRA{}).Allocate(p)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"a": 30, "b": 1, "c": 20, "d": 1, "e": 1}
	if got := betaByArray(a); !reflect.DeepEqual(got, want) {
		t.Fatalf("FR-RA β = %v, want %v\ntrace:\n%s", got, want, strings.Join(a.Trace(), "\n"))
	}
	if a.Total() != 53 {
		t.Errorf("FR-RA total = %d, want 53", a.Total())
	}
}

// TestPRRAPaperExample pins PR-RA: the 11 leftover registers go to d,
// β = {a:30, b:1, c:20, d:12, e:1} (total 64).
func TestPRRAPaperExample(t *testing.T) {
	p := figure1Problem(t, 64)
	a, err := (PRRA{}).Allocate(p)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"a": 30, "b": 1, "c": 20, "d": 12, "e": 1}
	if got := betaByArray(a); !reflect.DeepEqual(got, want) {
		t.Fatalf("PR-RA β = %v, want %v\ntrace:\n%s", got, want, strings.Join(a.Trace(), "\n"))
	}
	if a.Total() != 64 {
		t.Errorf("PR-RA total = %d, want 64", a.Total())
	}
}

// TestCPARAPaperExample pins the contribution's outcome: d is fully
// replaced via the minimum cut, then the {a,b} cut splits the residue
// equally: β = {a:16, b:16, c:1, d:30, e:1} (total 64).
func TestCPARAPaperExample(t *testing.T) {
	p := figure1Problem(t, 64)
	a, err := (CPARA{}).Allocate(p)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"a": 16, "b": 16, "c": 1, "d": 30, "e": 1}
	if got := betaByArray(a); !reflect.DeepEqual(got, want) {
		t.Fatalf("CPA-RA β = %v, want %v\ntrace:\n%s", got, want, strings.Join(a.Trace(), "\n"))
	}
	if a.Total() != 64 {
		t.Errorf("CPA-RA total = %d, want 64", a.Total())
	}
}

// TestKnapsackBaseline: the optimal access-eliminating selection for the
// example picks c (1180/20), a (1170/30) — d's 29 extra registers no
// longer fit after those two (11 left), so KS-RA matches FR-RA here.
func TestKnapsackBaseline(t *testing.T) {
	p := figure1Problem(t, 64)
	a, err := (Knapsack{}).Allocate(p)
	if err != nil {
		t.Fatal(err)
	}
	got := betaByArray(a)
	if got["a"] != 30 || got["c"] != 20 {
		t.Fatalf("KS-RA should fully replace a and c: %v", got)
	}
	// Optimality: no other feasible subset eliminates more reads.
	if got["d"] != 1 || got["b"] != 1 {
		t.Fatalf("KS-RA picked an infeasible/suboptimal set: %v", got)
	}
}

// TestKnapsackOptimalVsGreedy constructs a case where greedy FR-RA loses to
// the optimal knapsack: one high-ratio large item vs two medium items that
// together dominate.
func TestKnapsackOptimalVsGreedy(t *testing.T) {
	// x[k] over a 3-deep nest: reused heavily. Budget tuned so FR-RA's
	// first greedy pick (best ratio) blocks the truly optimal pair.
	src := `
array u[12]:8;
array v[9]:8;
array w[16]:8;
array o[4][12][16]:8;
for i = 0..4 {
  for j = 0..12 {
    for k = 0..16 {
      o[i][j][k] = u[j] * v[j - j] + w[k];
    }
  }
}
`
	p, err := NewProblem(dsl.MustParse(src), 24, dfg.DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	g, err := (FRRA{}).Allocate(p)
	if err != nil {
		t.Fatal(err)
	}
	k, err := (Knapsack{}).Allocate(p)
	if err != nil {
		t.Fatal(err)
	}
	if eliminated(p, k) < eliminated(p, g) {
		t.Fatalf("knapsack (%d) must not lose to greedy (%d)", eliminated(p, k), eliminated(p, g))
	}
}

func eliminated(p *Problem, a *Allocation) int {
	total := 0
	for _, inf := range p.Infos {
		if a.FullyReplaced(inf) {
			total += inf.SavedReads
		}
	}
	return total
}

// TestAllFitFastPath: with a huge budget every algorithm fully replaces
// every reference.
func TestAllFitFastPath(t *testing.T) {
	p := figure1Problem(t, 1000)
	for _, alg := range All() {
		a, err := alg.Allocate(p)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		for _, inf := range p.Infos {
			if !a.FullyReplaced(inf) {
				t.Errorf("%s: %s not fully replaced with ample budget (β=%d, ν=%d)",
					alg.Name(), inf.Key(), a.Beta[inf.Group.ID], inf.Nu)
			}
		}
	}
}

// TestSaturatedBudgetsClosedForm: on 500 nests of the random-nests
// benchmark's generator, at budgets from the reference count n to past the
// saturation boundary Σν, every problem with Σν ≤ Rmax gets the closed
// form. FR-RA, PR-RA and CPA-RA grant β=ν; KS-RA grants ν exactly to the
// references that eliminate reads or cost nothing (ν=1), and leaves the
// rest their staging register.
func TestSaturatedBudgetsClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := irgen.Config{MaxDepth: 3, MaxTrip: 24, MaxArrays: 5, MaxStmts: 4, InteriorZeroProb: 0.35}
	saturated, short := 0, 0
	for i := range 500 {
		nest := irgen.Nest(rng, cfg)
		infos, err := reuse.Analyze(nest)
		if err != nil {
			t.Fatal(err)
		}
		g, err := dfg.Build(nest)
		if err != nil {
			t.Fatal(err)
		}
		full := 0
		for _, inf := range infos {
			full += inf.Nu
		}
		for _, rmax := range []int{len(infos), 16, 64, full - 1, full, full + 7} {
			p, err := NewProblemFrom(nest, infos, g, rmax, dfg.DefaultLatencies())
			if err != nil {
				continue // budget below the reference count
			}
			if full > rmax {
				short++
				continue
			}
			saturated++
			for _, alg := range All() {
				a, err := alg.Allocate(p)
				if err != nil {
					t.Fatalf("nest %d at %d: %s: %v", i, rmax, alg.Name(), err)
				}
				for j, inf := range infos {
					want := inf.Nu
					if alg.Name() == "KS-RA" && inf.SavedReads <= 0 && inf.Nu > 1 {
						want = 1
					}
					if a.Beta[j] != want {
						t.Fatalf("nest %d at %d (Σν=%d): %s gives β(%s)=%d, want %d",
							i, rmax, full, alg.Name(), inf.Key(), a.Beta[j], want)
					}
				}
			}
		}
	}
	if saturated == 0 || short == 0 {
		t.Fatalf("%d saturated and %d unsaturated problems: the budgets miss the boundary", saturated, short)
	}
	t.Logf("%d saturated problems checked, %d unsaturated skipped", saturated, short)
}

// TestMinimumBudget: with exactly one register per reference, every
// algorithm returns the all-ones vector.
func TestMinimumBudget(t *testing.T) {
	p := figure1Problem(t, 5)
	for _, alg := range All() {
		a, err := alg.Allocate(p)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		for i, b := range a.Beta {
			if b != 1 {
				t.Errorf("%s: β(%s)=%d with minimum budget, want 1", alg.Name(), p.Infos[i].Key(), b)
			}
		}
	}
}

func TestBudgetBelowReferencesRejected(t *testing.T) {
	if _, err := NewProblem(dsl.MustParse(figure1Src), 4, dfg.DefaultLatencies()); err == nil {
		t.Fatal("expected error for budget below reference count")
	}
}

// TestFeasibilityProperty: for random budgets, every allocator returns a
// feasible allocation (β≥1, β≤ν, Σβ≤Rmax) — checked via Validate.
func TestFeasibilityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	nest := dsl.MustParse(figure1Src)
	for trial := 0; trial < 60; trial++ {
		rmax := 5 + rng.Intn(700)
		p, err := NewProblem(nest, rmax, dfg.DefaultLatencies())
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range All() {
			a, err := alg.Allocate(p)
			if err != nil {
				t.Fatalf("rmax=%d %s: %v", rmax, alg.Name(), err)
			}
			if err := a.Validate(p); err != nil {
				t.Fatalf("rmax=%d: %v", rmax, err)
			}
		}
	}
}

// TestMonotoneRegisterUse: PR-RA and CPA-RA consume a non-decreasing number
// of registers as the budget grows (they never waste budget a smaller
// budget could use).
func TestMonotoneRegisterUse(t *testing.T) {
	nest := dsl.MustParse(figure1Src)
	for _, alg := range []Allocator{PRRA{}, CPARA{}} {
		prev := 0
		for rmax := 5; rmax <= 120; rmax += 7 {
			p, err := NewProblem(nest, rmax, dfg.DefaultLatencies())
			if err != nil {
				t.Fatal(err)
			}
			a, err := alg.Allocate(p)
			if err != nil {
				t.Fatal(err)
			}
			if a.Total() < prev {
				t.Fatalf("%s: total registers dropped from %d to %d at rmax=%d", alg.Name(), prev, a.Total(), rmax)
			}
			prev = a.Total()
		}
	}
}

func TestDeterminism(t *testing.T) {
	p := figure1Problem(t, 64)
	for _, alg := range All() {
		a1, err := alg.Allocate(p)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := alg.Allocate(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a1.Beta, a2.Beta) {
			t.Errorf("%s not deterministic: %v vs %v", alg.Name(), a1.Beta, a2.Beta)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"FR-RA", "PR-RA", "CPA-RA", "KS-RA"} {
		alg, err := ByName(name)
		if err != nil || alg.Name() != name {
			t.Errorf("ByName(%s) = %v, %v", name, alg, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown allocator should error")
	}
}

func TestAllocationStringAndTrace(t *testing.T) {
	p := figure1Problem(t, 64)
	a, err := (CPARA{}).Allocate(p)
	if err != nil {
		t.Fatal(err)
	}
	s := a.String()
	if !strings.HasPrefix(s, "CPA-RA:") || !strings.Contains(s, "β(d[i][k])=30") {
		t.Errorf("String = %q", s)
	}
	if len(a.Trace()) < 2 {
		t.Errorf("expected a decision trace, got %v", a.Trace())
	}
}

// TestCPARATraceShowsRounds: the example should resolve in two allocation
// rounds (d's cut, then the {a,b} split).
func TestCPARATraceShowsRounds(t *testing.T) {
	p := figure1Problem(t, 64)
	a, err := (CPARA{}).Allocate(p)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(a.Trace(), "\n")
	if !strings.Contains(joined, "cut {d[i][k]} fully replaced") {
		t.Errorf("trace missing d cut:\n%s", joined)
	}
	if !strings.Contains(joined, "split equally") {
		t.Errorf("trace missing equal split:\n%s", joined)
	}
}

// TestNewProblemFromRejectsMixedFrontEnds: allocators index the reuse
// summary and the graph by reference number, so a summary and a graph
// from different nests must fail to package, whether or not their
// reference counts agree, instead of panicking on an index later.
func TestNewProblemFromRejectsMixedFrontEnds(t *testing.T) {
	ks := append(kernels.All(), kernels.Figure1())
	type frontEnd struct {
		infos []*reuse.Info
		g     *dfg.Graph
	}
	fes := make([]frontEnd, len(ks))
	for i, k := range ks {
		infos, err := reuse.Analyze(k.Nest)
		if err != nil {
			t.Fatal(err)
		}
		g, err := dfg.Build(k.Nest)
		if err != nil {
			t.Fatal(err)
		}
		fes[i] = frontEnd{infos, g}
	}
	for i, a := range ks {
		for j, b := range ks {
			_, err := NewProblemFrom(b.Nest, fes[i].infos, fes[j].g, 1<<20, dfg.DefaultLatencies())
			if (err == nil) != (i == j) {
				t.Errorf("%s summary with %s graph: err = %v", a.Name, b.Name, err)
			}
		}
	}
}
