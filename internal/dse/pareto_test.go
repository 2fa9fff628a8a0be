package dse

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fpga"
	"repro/internal/hls"
	"repro/internal/kernels"
)

// fakeResult builds a synthetic successful result with the given
// objectives on the named kernel.
func fakeResult(idx int, kernel string, timeUs float64, slices, regs int) Result {
	return Result{
		Point:  Point{Index: idx, Kernel: kernels.Kernel{Name: kernel, Rmax: 64}},
		Design: &hls.Design{Kernel: kernel, TimeUs: timeUs, Slices: slices, Registers: regs},
	}
}

// frontierOf streams results through the frontier tracker every reporter
// uses and returns kernel "k"'s frontier.
func frontierOf(results []Result) []Result {
	ft := newFrontierTracker()
	for _, r := range results {
		ft.add(r)
	}
	return ft.byKernel["k"]
}

func frontierIndices(results []Result) []int {
	return frontierIndicesOf(frontierOf(results))
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFrontierBasics(t *testing.T) {
	results := []Result{
		fakeResult(0, "k", 100, 1000, 64), // dominated by 2
		fakeResult(1, "k", 50, 2000, 64),  // frontier: fastest
		fakeResult(2, "k", 90, 900, 32),   // frontier
		fakeResult(3, "k", 90, 900, 48),   // dominated by 2 (same time/slices, more regs)
		fakeResult(4, "k", 200, 100, 8),   // frontier: smallest
	}
	got := frontierIndices(results)
	if want := []int{1, 2, 4}; !equalInts(got, want) {
		t.Errorf("frontier = %v, want %v", got, want)
	}
}

func TestFrontierKeepsTies(t *testing.T) {
	results := []Result{
		fakeResult(0, "k", 10, 100, 8),
		fakeResult(1, "k", 10, 100, 8), // identical objectives: both stay
	}
	if got := frontierIndices(results); !equalInts(got, []int{0, 1}) {
		t.Errorf("tied points = %v, want both kept", got)
	}
}

func TestFrontierSkipsFailures(t *testing.T) {
	failed := Result{Point: Point{Index: 0}, Err: errFake}
	results := []Result{failed, fakeResult(1, "k", 10, 10, 1)}
	if got := frontierIndices(results); !equalInts(got, []int{1}) {
		t.Errorf("frontier = %v, want [1]", got)
	}
	if got := frontierOf([]Result{failed}); len(got) != 0 {
		t.Errorf("all-failed frontier = %v, want empty", got)
	}
}

var _, errFake = fpga.Device{}.Fit(1, fpga.DesignStats{})

// naiveFrontier is the seed all-pairs O(n²) extraction, kept as the oracle
// for the frontier tracker.
func naiveFrontier(results []Result) []Result {
	var frontier []Result
	for _, r := range results {
		if !r.Ok() {
			continue
		}
		dominated := false
		for _, o := range results {
			if o.Ok() && dominates(o.Design, r.Design) {
				dominated = true
				break
			}
		}
		if !dominated {
			frontier = append(frontier, r)
		}
	}
	return frontier
}

// TestFrontierMatchesNaiveOnRandomSets differentials the frontier tracker
// against the all-pairs oracle on random objective sets dense with ties and
// duplicate coordinates, where evictions reorder nothing only if the
// tracker keeps relative point order.
func TestFrontierMatchesNaiveOnRandomSets(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		results := make([]Result, n)
		for i := range results {
			// Small value ranges force coordinate collisions and full-triple
			// ties; a sprinkling of failures checks the skip path.
			results[i] = fakeResult(i, "k", float64(rng.Intn(6)), rng.Intn(6), rng.Intn(6))
			if rng.Intn(8) == 0 {
				results[i] = Result{Point: Point{Index: i}, Err: errFake}
			}
		}
		want := frontierIndicesOf(naiveFrontier(results))
		got := frontierIndices(results)
		if !equalInts(got, want) {
			t.Fatalf("trial %d: tracker %v != naive %v", trial, got, want)
		}
	}
}

func frontierIndicesOf(results []Result) []int {
	var idx []int
	for _, r := range results {
		idx = append(idx, r.Point.Index)
	}
	return idx
}

func TestFrontierByKernelGroups(t *testing.T) {
	// A point that would dominate across kernels must not: frontiers are
	// per kernel.
	sp := Space{
		Kernels:    []kernels.Kernel{{Name: "a"}, {Name: "b"}},
		Allocators: []core.Allocator{core.FRRA{}},
	}
	ft := newFrontierTracker()
	for _, r := range []Result{
		fakeResult(0, "a", 10, 10, 1), // would dominate everything in "b"
		fakeResult(1, "b", 100, 100, 64),
		fakeResult(2, "b", 100, 200, 64), // dominated within b
	} {
		ft.add(r)
	}
	fronts := ft.frontiers(sp.Kernels)
	if len(fronts) != 2 || fronts[0].Kernel != "a" || fronts[1].Kernel != "b" {
		t.Fatalf("frontiers = %+v", fronts)
	}
	if len(fronts[0].Points) != 1 || fronts[0].Points[0].Point.Index != 0 {
		t.Errorf("kernel a frontier = %+v", fronts[0].Points)
	}
	if len(fronts[1].Points) != 1 || fronts[1].Points[0].Point.Index != 1 {
		t.Errorf("kernel b frontier = %+v, cross-kernel domination leaked", fronts[1].Points)
	}
}

// TestFrontierOnRealSweep checks frontier invariants on an actual
// exploration: every non-frontier point is dominated by some frontier
// point of its kernel, and no frontier point dominates another.
func TestFrontierOnRealSweep(t *testing.T) {
	sp := Space{
		Kernels:    []kernels.Kernel{kernels.Figure1()},
		Allocators: core.All(),
		Budgets:    []int{8, 16, 32, 64},
		Devices:    []fpga.Device{fpga.XCV1000(), fpga.XC2V6000()},
	}
	rs := mustExplore(t, Engine{Workers: 4}, sp)
	ft := newFrontierTracker()
	for _, r := range rs.Results {
		ft.add(r)
	}
	fronts := ft.frontiers(rs.Space.Kernels)
	if len(fronts) != 1 {
		t.Fatalf("got %d frontiers", len(fronts))
	}
	front := fronts[0].Points
	if len(front) == 0 {
		t.Fatal("empty frontier on a successful sweep")
	}
	onFront := map[int]bool{}
	for _, f := range front {
		onFront[f.Point.Index] = true
	}
	for _, f := range front {
		for _, g := range front {
			if f.Point.Index != g.Point.Index && dominates(f.Design, g.Design) {
				t.Errorf("frontier point %s dominates frontier point %s", f.Point.ID(), g.Point.ID())
			}
		}
	}
	for _, r := range rs.Ok() {
		if onFront[r.Point.Index] {
			continue
		}
		dominated := false
		for _, f := range front {
			if dominates(f.Design, r.Design) {
				dominated = true
				break
			}
		}
		if !dominated {
			t.Errorf("non-frontier point %s is undominated", r.Point.ID())
		}
	}
}
