package dse

import (
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
// of the point alone, with no simulation cache.
func standalone(t *testing.T, an map[string]*hls.Analysis, p Point, members bool) Result {
	t.Helper()
	a := an[p.Kernel.Name]
	if pf, ok := p.Allocator.(Portfolio); ok {
		d, ms, err := a.EstimatePortfolio(pf.Allocators, p.Options(), nil)
		if !members {
			ms = nil
		}
		return Result{Point: p, Design: d, Members: ms, Err: err}
	}
	d, err := a.EstimateSim(p.Allocator, p.Options(), nil)
	return Result{Point: p, Design: d, Err: err}
}

// checkAgainstStandalone asserts every result equals a standalone estimate
// of its point: design metrics, member designs and error text.
func checkAgainstStandalone(t *testing.T, label string, sp Space, got []Result) (ok, failed int) {
	t.Helper()
	an := map[string]*hls.Analysis{}
	for _, k := range sp.Kernels {
		a, err := hls.Analyze(k)
		if err != nil {
			t.Fatal(err)
		}
		an[k.Name] = a
	}
	for _, r := range got {
		want := standalone(t, an, r.Point, sp.PortfolioAll)
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

// TestUnitDispatchMatchesStandaloneEstimates is the differential test of
// the unit dispatch: one schedule per (kernel, allocator, budget, sched)
// realized on every device must give each point exactly what estimating
// the point alone gives, in plain and portfolio mode, whatever the worker
// count, and on every shard of a 3-way partition (whose units are
// strided subsets of the blocks).
func TestUnitDispatchMatchesStandaloneEstimates(t *testing.T) {
	for _, mode := range []string{"plain", "portfolio", "portfolio-all"} {
		sp := unitSpace()
		sp.Portfolio = mode != "plain"
		sp.PortfolioAll = mode == "portfolio-all"
		want := sp.Size()
		for _, workers := range []int{1, 8} {
			label := fmt.Sprintf("%s/workers=%d", mode, workers)
			rs := mustExplore(t, Engine{Workers: workers}, sp)
			if len(rs.Results) != want {
				t.Fatalf("%s: %d results, want %d", label, len(rs.Results), want)
			}
			ok, failed := checkAgainstStandalone(t, label, sp, rs.Results)
			if ok == 0 || failed == 0 {
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
		if len(shards) != want {
			t.Fatalf("%s: shards hold %d results, want %d", mode, len(shards), want)
		}
		checkAgainstStandalone(t, mode+"/shard", sp, shards)
	}
}

// TestUnitDispatchSmallWindow: a window smaller than a unit is raised to
// the unit size, so the stream completes (a unit takes one slot per
// point before it is dispatched) and parks no more than one unit.
func TestUnitDispatchSmallWindow(t *testing.T) {
	sp := unitSpace()
	unit := len(sp.Devices) * len(sp.Scheds)
	for _, window := range []int{1, 2, unit - 1} {
		done := make(chan StreamStats, 1)
		var got []int
		go func() { //repro:norecover test harness: a panic here fails the test via the timeout below
			st, err := Engine{Workers: 4, Window: window}.ExploreStream(sp, funcReporter{
				point: func(r Result) error {
					got = append(got, r.Point.Index)
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
			t.Fatalf("Window %d: the stream deadlocked", window)
		}
		if st.Points != sp.Size() || len(got) != sp.Size() {
			t.Fatalf("Window %d: streamed %d points, want %d", window, len(got), sp.Size())
		}
		for i, idx := range got {
			if idx != i {
				t.Fatalf("Window %d: position %d carried point %d", window, i, idx)
			}
		}
		if st.MaxWindow < 1 || st.MaxWindow > unit {
			t.Errorf("Window %d: MaxWindow = %d, want within [1,%d]", window, st.MaxWindow, unit)
		}
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

// TestWindowCountsUnits: an explicit window is raised to the largest
// unit, and the default holds four units per worker (at least 16 points),
// which on one-point units is the old 4×workers.
func TestWindowCountsUnits(t *testing.T) {
	for _, tc := range []struct {
		e          Engine
		unit, want int
	}{
		{Engine{Workers: 1}, 1, 16},
		{Engine{Workers: 8}, 1, 32},
		{Engine{Workers: 2}, 2, 16},
		{Engine{Workers: 2}, 18, 144},
		{Engine{Workers: 2, Window: 4}, 18, 18},
		{Engine{Workers: 2, Window: 40}, 18, 40},
	} {
		if got := tc.e.window(tc.unit); got != tc.want {
			t.Errorf("Engine{Workers: %d, Window: %d}.window(%d) = %d, want %d",
				tc.e.Workers, tc.e.Window, tc.unit, got, tc.want)
		}
	}
}
