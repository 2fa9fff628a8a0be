package dse

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fpga"
	"repro/internal/hls"
	"repro/internal/kernels"
)

// unitSpace has 12-point units whose schedules repeat every 4 points:
// three devices outside four sched variants. The third device is small
// enough that some designs fail Fit, so units mix successes and device
// failures on one schedule.
func unitSpace() Space {
	return Space{
		Kernels:    []kernels.Kernel{kernels.Figure1(), kernels.FIR()},
		Allocators: core.All(),
		Budgets:    []int{8, 64},
		Devices: []fpga.Device{fpga.XCV1000(), fpga.XC2V6000(),
			{Name: "small", Slices: 380, BlockRAMs: 32, BlockRAMBits: 4096}},
		Scheds: SchedAxis([]int{1, 2}, []int{1, 2}),
	}
}

// designText renders what a reporter reads from a design.
func designText(d *hls.Design) string {
	if d == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s/%s β=%d cycles=%d tmem=%d clock=%v time=%v slices=%d util=%v rams=%d",
		d.Kernel, d.Algorithm, d.Registers, d.Cycles, d.MemCycles, d.ClockNs, d.TimeUs, d.Slices, d.SliceUtil, d.RAMs)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// standalone estimates one point outside the engine: a fresh estimate
// of the point alone, with no plan memo, class store or schedule memo.
func standalone(an map[string]*hls.Analysis, p Point, members bool) Result {
	a := an[p.Kernel.Name]
	if pf, ok := p.Allocator.(Portfolio); ok {
		schedules := make([]hls.Member, len(pf.Allocators))
		for i, alg := range pf.Allocators {
			schedules[i].Schedule, schedules[i].Err = a.Schedule(alg, p.Options(), nil)
		}
		d, ms, err := a.RealizePortfolio(schedules, p.Device)
		if !members {
			ms = nil
		}
		return Result{Point: p, Design: d, Members: ms, Err: err}
	}
	d, err := a.Estimate(p.Allocator, p.Options())
	return Result{Point: p, Design: d, Err: err}
}

// standaloneAll estimates every point of sp standalone, indexed by global
// point index.
func standaloneAll(t *testing.T, sp Space) []Result {
	t.Helper()
	an := map[string]*hls.Analysis{}
	for _, k := range sp.Kernels {
		a, err := hls.Analyze(k)
		if err != nil {
			t.Fatal(err)
		}
		an[k.Name] = a
	}
	pts := sp.Points()
	wants := make([]Result, len(pts))
	for i, p := range pts {
		wants[i] = standalone(an, p, sp.PortfolioAll)
	}
	return wants
}

// checkAgainstStandalone asserts every result equals the standalone
// estimate of its point (wants, from standaloneAll): design metrics,
// member designs and error text.
func checkAgainstStandalone(t *testing.T, label string, wants, got []Result) (ok, failed int) {
	t.Helper()
	for _, r := range got {
		want := wants[r.Point.Index]
		if g, w := errText(r.Err), errText(want.Err); g != w {
			t.Errorf("%s: %s: error %q, standalone %q", label, r.Point.ID(), g, w)
		}
		if g, w := designText(r.Design), designText(want.Design); g != w {
			t.Errorf("%s: %s: design %s, standalone %s", label, r.Point.ID(), g, w)
		}
		if len(r.Members) != len(want.Members) {
			t.Errorf("%s: %s: %d members, standalone %d", label, r.Point.ID(), len(r.Members), len(want.Members))
		} else {
			for i := range r.Members {
				if g, w := designText(r.Members[i]), designText(want.Members[i]); g != w {
					t.Errorf("%s: %s: member %d %s, standalone %s", label, r.Point.ID(), i, g, w)
				}
			}
		}
		if r.Ok() {
			ok++
		} else {
			failed++
		}
	}
	return ok, failed
}

// memPortSpace is the stock space with the CLI's `-memlat 1,2 -ports
// 1,2`: 768 points in 8-point blocks.
func memPortSpace() Space {
	sp := DefaultSpace()
	sp.Scheds = SchedAxis([]int{1, 2}, []int{1, 2})
	return sp
}

// TestUnitDispatchMatchesStandaloneEstimates is the differential test of
// the engine against the memo-free reference: one schedule per (kernel,
// allocator, budget, sched) realized on every device, the plan memo and
// the class store must give each point exactly what estimating the point
// alone gives, in plain and portfolio mode, whatever the worker count,
// and on every shard of a 3-way partition (whose units are strided
// subsets of the blocks). unitSpace's units mix fits and Fit failures on
// one schedule; the stock space, plain and portfolio-all, and its
// memlat × ports widening are the CLI's own sweeps.
func TestUnitDispatchMatchesStandaloneEstimates(t *testing.T) {
	type input struct {
		name  string
		sp    Space
		mixed bool // the space must mix fits and Fit failures
	}
	var inputs []input
	for _, mode := range []string{"plain", "portfolio", "portfolio-all"} {
		sp := unitSpace()
		sp.Portfolio = mode != "plain"
		sp.PortfolioAll = mode == "portfolio-all"
		inputs = append(inputs, input{"unit/" + mode, sp, true})
	}
	pfAll := DefaultSpace()
	pfAll.Portfolio, pfAll.PortfolioAll = true, true
	inputs = append(inputs,
		input{"stock/plain", DefaultSpace(), false},
		input{"stock/portfolio-all", pfAll, false},
		input{"stock/memlat×ports", memPortSpace(), false})
	for _, in := range inputs {
		sp := in.sp
		wants := standaloneAll(t, sp)
		for _, workers := range []int{1, 8} {
			label := fmt.Sprintf("%s/workers=%d", in.name, workers)
			rs := mustExplore(t, Engine{Workers: workers}, sp)
			if len(rs.Results) != len(wants) {
				t.Fatalf("%s: %d results, want %d", label, len(rs.Results), len(wants))
			}
			ok, failed := checkAgainstStandalone(t, label, wants, rs.Results)
			if in.mixed && (ok == 0 || failed == 0) {
				t.Errorf("%s: %d ok, %d failed: the space must mix fits and Fit failures", label, ok, failed)
			}
		}
		if sp.PortfolioAll {
			continue // the member diagnostic refuses sharding
		}
		var shards []Result
		for i := range 3 {
			rs, err := Engine{Workers: 4}.ExploreShard(sp, i, 3)
			if err != nil {
				t.Fatal(err)
			}
			shards = append(shards, rs.Results...)
		}
		if len(shards) != len(wants) {
			t.Fatalf("%s: shards hold %d results, want %d", in.name, len(shards), len(wants))
		}
		checkAgainstStandalone(t, in.name+"/shard", wants, shards)
	}
}

// TestUnitDispatchPartialUnits: a subset that cuts every block into a
// partial unit streams to completion and in order through the default
// window at eight workers, under a reporter slow enough that the pool
// fills the window, and parks at most slots × the largest unit.
func TestUnitDispatchPartialUnits(t *testing.T) {
	sp := memPortSpace()
	block := len(sp.Devices) * len(sp.Scheds)
	var subset []int
	for g := range sp.Size() {
		if g%3 != 0 {
			subset = append(subset, g)
		}
	}
	unit := 0
	for lo := 0; lo < len(subset); {
		hi := nextUnit(subset, lo, block)
		unit = max(unit, hi-lo)
		lo = hi
	}
	if unit == 0 || unit >= block {
		t.Fatalf("largest unit %d of %d-point blocks: the subset must cut blocks", unit, block)
	}
	e := Engine{Workers: 8}
	done := make(chan StreamStats, 1)
	var got []int
	go func() { //repro:norecover test harness: a panic here fails the test via the timeout below
		st, err := e.ExploreSubsetStream(context.Background(), sp, subset, funcReporter{
			point: func(r Result) error {
				got = append(got, r.Point.Index)
				time.Sleep(20 * time.Microsecond)
				return nil
			},
		})
		if err != nil {
			t.Error(err)
		}
		done <- st
	}()
	var st StreamStats
	select {
	case st = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("the stream deadlocked")
	}
	if st.Points != len(subset) || len(got) != len(subset) {
		t.Fatalf("streamed %d points, want %d", len(got), len(subset))
	}
	for i, idx := range got {
		if idx != subset[i] {
			t.Fatalf("position %d carried point %d, want %d", i, idx, subset[i])
		}
	}
	if bound := e.window(unit) * unit; st.MaxWindow < 1 || st.MaxWindow > bound {
		t.Errorf("MaxWindow = %d, want within [1,%d] (%d slots × %d-point units)", st.MaxWindow, bound, e.window(unit), unit)
	}
}

// TestUnitsFollowBlocks pins how owned indices cut into units: one unit
// per (kernel, allocator, budget) block, contiguous in owned, for a full
// space, a shard stride and an arbitrary subset.
func TestUnitsFollowBlocks(t *testing.T) {
	units := func(owned []int, block int) [][]int {
		var out [][]int
		for lo := 0; lo < len(owned); {
			hi := nextUnit(owned, lo, block)
			out = append(out, owned[lo:hi])
			lo = hi
		}
		return out
	}
	for _, tc := range []struct {
		owned []int
		block int
		want  string
	}{
		{[]int{0, 1, 2, 3, 4, 5}, 2, "[[0 1] [2 3] [4 5]]"},
		{[]int{0, 1, 2, 3, 4, 5}, 1, "[[0] [1] [2] [3] [4] [5]]"},
		{[]int{0, 3, 6, 9, 12}, 6, "[[0 3] [6 9] [12]]"},
		{[]int{1, 2, 11, 12, 13, 30}, 12, "[[1 2 11] [12 13] [30]]"},
	} {
		if got := fmt.Sprint(units(tc.owned, tc.block)); got != tc.want {
			t.Errorf("units(%v, %d) = %s, want %s", tc.owned, tc.block, got, tc.want)
		}
	}
}

// TestWindowCountsUnits: the window holds four units per worker, in
// slots of one unit each, and at least 16 points rounded up to whole
// units; a run that owns no point (unit 0) gets four slots per worker.
func TestWindowCountsUnits(t *testing.T) {
	for _, tc := range []struct {
		workers, unit, want int
	}{
		{1, 1, 16},
		{8, 1, 32},
		{2, 2, 8},
		{1, 3, 6},
		{2, 18, 8},
		{1, 0, 4},
	} {
		if got := (Engine{Workers: tc.workers}).window(tc.unit); got != tc.want {
			t.Errorf("Engine{Workers: %d}.window(%d) = %d slots, want %d", tc.workers, tc.unit, got, tc.want)
		}
	}
}
