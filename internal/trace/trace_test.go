package trace

import (
	"math/rand"
	"testing"

	"repro/internal/irgen"
	"repro/internal/kernels"
	"repro/internal/reuse"
)

// TestNuIsLRUSufficient is the central cross-validation: for every
// reference of every kernel, a fully-associative LRU file of the analytic
// size ν reduces misses to the cold footprint — i.e. ν registers really do
// capture all temporal reuse, independently re-derived from the raw trace.
func TestNuIsLRUSufficient(t *testing.T) {
	if testing.Short() {
		t.Skip("trace sweep skipped in -short mode")
	}
	ks := append(kernels.All(), kernels.Figure1())
	for _, k := range ks {
		if k.Name == "bic" || k.Name == "imi" {
			continue // large traces; covered by TestNuIsLRUSufficientLarge
		}
		infos, err := reuse.Analyze(k.Nest)
		if err != nil {
			t.Fatal(err)
		}
		for _, inf := range infos {
			misses, err := LRUMisses(k.Nest, inf.Key(), inf.Nu)
			if err != nil {
				t.Fatal(err)
			}
			foot, err := Footprint(k.Nest, inf.Key())
			if err != nil {
				t.Fatal(err)
			}
			if misses != foot {
				t.Errorf("%s %s: LRU(ν=%d) misses %d, footprint %d — ν does not capture full reuse",
					k.Name, inf.Key(), inf.Nu, misses, foot)
			}
			if foot != inf.Distinct[0] {
				t.Errorf("%s %s: trace footprint %d != analytic %d", k.Name, inf.Key(), foot, inf.Distinct[0])
			}
			acc, err := Accesses(k.Nest, inf.Key())
			if err != nil {
				t.Fatal(err)
			}
			if acc != inf.TotalReads+inf.TotalWrites {
				t.Errorf("%s %s: trace accesses %d != analytic %d", k.Name, inf.Key(), acc, inf.TotalReads+inf.TotalWrites)
			}
		}
	}
}

// TestNuIsLRUSufficientLarge covers one reference each of the two big
// kernels.
func TestNuIsLRUSufficientLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large traces skipped in -short mode")
	}
	cases := []struct{ kernel, key string }{
		{"bic", "tpl[m][n]"},
		{"imi", "a[i][j]"},
	}
	for _, tc := range cases {
		k, err := kernels.ByName(tc.kernel)
		if err != nil {
			t.Fatal(err)
		}
		infos, err := reuse.Analyze(k.Nest)
		if err != nil {
			t.Fatal(err)
		}
		inf := reuse.ByKey(infos)[tc.key]
		misses, err := LRUMisses(k.Nest, tc.key, inf.Nu)
		if err != nil {
			t.Fatal(err)
		}
		if misses != inf.Distinct[0] {
			t.Errorf("%s %s: LRU(ν) misses %d != footprint %d", tc.kernel, tc.key, misses, inf.Distinct[0])
		}
	}
}

// TestMissCurveMonotone: LRU's inclusion property — larger files never
// miss more — checked on the FIR window and on random programs.
func TestMissCurveMonotone(t *testing.T) {
	k := kernels.FIR()
	sizes := []int{1, 2, 4, 8, 16, 24, 31, 32, 64}
	curve, err := MissCurve(k.Nest, "x[i + k]", sizes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] > curve[i-1] {
			t.Fatalf("miss curve not monotone at size %d: %v", sizes[i], curve)
		}
	}
	// Full window: cold misses only (footprint 1023). One register: every
	// access misses except immediate repeats (there are none for x).
	if curve[len(curve)-1] != 1023 {
		t.Errorf("misses at 64 = %d, want 1023", curve[len(curve)-1])
	}
	if curve[0] != 992*32 {
		t.Errorf("misses at 1 = %d, want %d (no temporal locality at distance 1)", curve[0], 992*32)
	}
}

// TestCyclicCliffAndSlidingGrace contrasts the two classic LRU behaviours
// in FIR. The coefficient reference c[k] cycles 0..31 repeatedly: one
// register short of ν and LRU thrashes completely (every access evicts the
// element needed 31 accesses later). The sliding window x[i+k] degrades
// gracefully: LRU keeps the most recent elements, which are exactly the
// ones the next output reuses, so even ν-1 registers stay near cold-miss
// level — the structure the paper's partial-reuse (PR-RA/CPA-RA split)
// allocations exploit.
func TestCyclicCliffAndSlidingGrace(t *testing.T) {
	k := kernels.FIR()
	cAt31, err := LRUMisses(k.Nest, "c[k]", 31)
	if err != nil {
		t.Fatal(err)
	}
	cAt32, err := LRUMisses(k.Nest, "c[k]", 32)
	if err != nil {
		t.Fatal(err)
	}
	if cAt32 != 32 {
		t.Errorf("c misses at ν: %d, want 32 (cold only)", cAt32)
	}
	if cAt31 != 992*32 {
		t.Errorf("c misses at ν-1: %d, want %d (total thrash)", cAt31, 992*32)
	}
	xAt31, err := LRUMisses(k.Nest, "x[i + k]", 31)
	if err != nil {
		t.Fatal(err)
	}
	if xAt31 != 1023 {
		t.Errorf("x misses at ν-1: %d, want 1023 (sliding windows degrade gracefully)", xAt31)
	}
}

// TestAccumulatorLocality: y[i] under LRU(1) misses once per i (the
// accumulator is perfectly register-resident), matching ν=1.
func TestAccumulatorLocality(t *testing.T) {
	k := kernels.FIR()
	misses, err := LRUMisses(k.Nest, "y[i]", 1)
	if err != nil {
		t.Fatal(err)
	}
	if misses != 992 {
		t.Errorf("y[i] misses with one register = %d, want 992 (one per output)", misses)
	}
}

// TestInclusionPropertyRandom: monotonicity holds on random programs for
// every reference (LRU stack inclusion).
func TestInclusionPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 25; trial++ {
		nest := irgen.Nest(rng, irgen.Config{MaxTrip: 5})
		for _, g := range nest.RefGroups() {
			prev := -1
			for _, cap := range []int{1, 2, 4, 8, 16} {
				m, err := LRUMisses(nest, g.Key, cap)
				if err != nil {
					t.Fatal(err)
				}
				if prev >= 0 && m > prev {
					t.Fatalf("trial %d %s: misses grew %d→%d with capacity %d\n%s", trial, g.Key, prev, m, cap, nest)
				}
				prev = m
			}
		}
	}
}

func TestLRUMissesRejectsBadCapacity(t *testing.T) {
	k := kernels.FIR()
	if _, err := LRUMisses(k.Nest, "x[i + k]", 0); err == nil {
		t.Fatal("capacity 0 should be rejected")
	}
}

// TestWalkOrder: reads precede the statement's write, statements in order.
func TestWalkOrder(t *testing.T) {
	k := kernels.Figure1()
	var first []Event
	if err := Walk(k.Nest, func(ev Event) {
		if len(first) < 6 {
			first = append(first, ev)
		}
	}); err != nil {
		t.Fatal(err)
	}
	wantKeys := []string{"a[k]", "b[k][j]", "d[i][k]", "c[j]", "d[i][k]", "e[i][j][k]"}
	wantWrites := []bool{false, false, true, false, false, true}
	for i := range wantKeys {
		if first[i].Key != wantKeys[i] || first[i].IsWrite != wantWrites[i] {
			t.Fatalf("event %d = %+v, want %s (write=%v)", i, first[i], wantKeys[i], wantWrites[i])
		}
	}
}

// refInPaperClass reports whether a reference belongs to the program class
// the paper's analysis targets: every index dimension is loop-invariant or
// depends on exactly one loop variable (invariant refs and sliding
// windows). For skewed references mixing several variables in one
// dimension (x[i+2j]), the subspace-distinct count ν is not necessarily
// LRU-sufficient — a documented limitation of the analytic model (see
// DESIGN.md) that the random-program probe below quantifies.
func refInPaperClass(inf *reuse.Info) bool {
	for _, ix := range inf.Group.Ref.Index() {
		if len(ix.Vars()) > 1 {
			return false
		}
	}
	return true
}

// TestNuLRUSufficiencyBoundary: on random programs, ν is LRU-sufficient
// for every reference in the paper's class; outside it, violations are
// possible (and counted, to keep the limitation visible).
func TestNuLRUSufficiencyBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	checked, skewed := 0, 0
	for trial := 0; trial < 120; trial++ {
		nest := irgen.Nest(rng, irgen.Config{MaxTrip: 5})
		infos, err := reuse.Analyze(nest)
		if err != nil {
			t.Fatal(err)
		}
		for _, inf := range infos {
			misses, err := LRUMisses(nest, inf.Key(), inf.Nu)
			if err != nil {
				t.Fatal(err)
			}
			if !refInPaperClass(inf) {
				skewed++
				continue // exactness not claimed outside the class
			}
			checked++
			if misses != inf.Distinct[0] {
				t.Fatalf("trial %d %s (paper class): LRU(ν=%d) misses %d != footprint %d\n%s",
					trial, inf.Key(), inf.Nu, misses, inf.Distinct[0], nest)
			}
		}
	}
	if checked < 100 || skewed < 10 {
		t.Fatalf("probe too weak: %d in-class, %d skewed references", checked, skewed)
	}
}
