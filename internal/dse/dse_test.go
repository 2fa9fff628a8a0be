package dse

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fpga"
	"repro/internal/hls"
	"repro/internal/kernels"
	"repro/internal/sched"
)

// smallSpace is a fast 2×2×2×2 space over the two smallest kernels.
func smallSpace() Space {
	return Space{
		Kernels:    []kernels.Kernel{kernels.Figure1(), kernels.FIR()},
		Allocators: []core.Allocator{core.FRRA{}, core.CPARA{}},
		Budgets:    []int{32, 64},
		Devices:    []fpga.Device{fpga.XCV1000(), fpga.XC2V6000()},
		Scheds:     []SchedVariant{DefaultSchedVariant()},
	}
}

func mustExplore(t *testing.T, e Engine, sp Space) *ResultSet {
	t.Helper()
	rs, err := e.Explore(sp)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	return rs
}

func TestSpaceSizeAndOrder(t *testing.T) {
	sp := smallSpace()
	pts := sp.Points()
	if len(pts) != sp.Size() || len(pts) != 16 {
		t.Fatalf("got %d points, Size()=%d, want 16", len(pts), sp.Size())
	}
	for i, p := range pts {
		if p.Index != i {
			t.Fatalf("point %d has Index %d", i, p.Index)
		}
	}
	// Row-major: kernel outermost, device inner of budget.
	if pts[0].ID() != "figure1/FR-RA/r32/XCV1000-BG560/default" {
		t.Errorf("first point = %s", pts[0].ID())
	}
	if pts[1].Device.Name != "XC2V6000-FF1152" || pts[1].Budget != 32 {
		t.Errorf("second point should vary the device first: %s", pts[1].ID())
	}
	if pts[8].Kernel.Name != "fir" {
		t.Errorf("point 8 should start the second kernel block: %s", pts[8].ID())
	}
}

func TestNormalizedDefaults(t *testing.T) {
	sp, err := Space{
		Kernels:    []kernels.Kernel{kernels.Figure1()},
		Allocators: []core.Allocator{core.FRRA{}},
	}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Budgets) != 1 || sp.Budgets[0] != 0 {
		t.Errorf("Budgets default = %v, want [0]", sp.Budgets)
	}
	if len(sp.Devices) != 1 || sp.Devices[0].Name != fpga.XCV1000().Name {
		t.Errorf("Devices default = %v, want the paper's XCV1000", sp.Devices)
	}
	if len(sp.Scheds) != 1 || sp.Scheds[0].Name != "default" {
		t.Errorf("Scheds default = %v", sp.Scheds)
	}

	if _, err := (Space{Allocators: []core.Allocator{core.FRRA{}}}).normalized(); err == nil {
		t.Error("empty kernel axis accepted")
	}
	if _, err := (Space{Kernels: []kernels.Kernel{kernels.FIR()}}).normalized(); err == nil {
		t.Error("empty allocator axis accepted")
	}
	if _, err := (Space{
		Kernels:    []kernels.Kernel{kernels.FIR(), kernels.FIR()},
		Allocators: []core.Allocator{core.FRRA{}},
	}).normalized(); err == nil {
		t.Error("duplicate kernel accepted")
	}
}

func TestExploreMatchesSerialEstimate(t *testing.T) {
	sp := smallSpace()
	sp.Budgets = []int{64} // serial re-estimation is the expensive half
	rs := mustExplore(t, Engine{Workers: 4}, sp)
	if len(rs.Results) != 8 {
		t.Fatalf("got %d results", len(rs.Results))
	}
	for _, r := range rs.Results {
		if !r.Ok() {
			t.Fatalf("%s failed: %v", r.Point.ID(), r.Err)
		}
		want, err := hls.Estimate(r.Point.Kernel, r.Point.Allocator, r.Point.Options())
		if err != nil {
			t.Fatalf("serial estimate %s: %v", r.Point.ID(), err)
		}
		d := r.Design
		if d.Registers != want.Registers || d.Cycles != want.Cycles || d.ClockNs != want.ClockNs ||
			d.TimeUs != want.TimeUs || d.Slices != want.Slices || d.RAMs != want.RAMs {
			t.Errorf("%s: engine %+v != serial %+v", r.Point.ID(), summary(d), summary(want))
		}
	}
}

func summary(d *hls.Design) [6]float64 {
	return [6]float64{float64(d.Registers), float64(d.Cycles), d.ClockNs, d.TimeUs, float64(d.Slices), float64(d.RAMs)}
}

// TestExploreDeterministicAcrossWorkers is the core determinism contract:
// every reporter's output is byte-identical whatever the worker count.
func TestExploreDeterministicAcrossWorkers(t *testing.T) {
	sp := Space{
		Kernels:    []kernels.Kernel{kernels.Figure1()},
		Allocators: core.All(),
		Budgets:    []int{8, 16, 32, 64},
		Devices:    []fpga.Device{fpga.XCV1000(), fpga.XC2V6000()},
	}
	render := func(workers int) (csvOut, jsonOut, tableOut string) {
		rs := mustExplore(t, Engine{Workers: workers}, sp)
		var c, j, tb bytes.Buffer
		if err := (CSVReporter{Pareto: true}).Report(&c, rs); err != nil {
			t.Fatal(err)
		}
		if err := (JSONReporter{Indent: true}).Report(&j, rs); err != nil {
			t.Fatal(err)
		}
		if err := (TableReporter{}).Report(&tb, rs); err != nil {
			t.Fatal(err)
		}
		return c.String(), j.String(), tb.String()
	}
	c1, j1, t1 := render(1)
	for _, workers := range []int{2, 8} {
		cN, jN, tN := render(workers)
		if cN != c1 {
			t.Errorf("CSV output differs between 1 and %d workers", workers)
		}
		if jN != j1 {
			t.Errorf("JSON output differs between 1 and %d workers", workers)
		}
		if tN != t1 {
			t.Errorf("table output differs between 1 and %d workers", workers)
		}
	}
}

// TestSaturatedSpaceSharesTheFullPlan explores a space where most units
// saturate (fir needs 65 registers, figure1 681) at 1 and 8 workers: the
// bytes and the simulation count agree, and within one exploration every
// design of a kernel whose β is ν everywhere carries the same plan. Under
// -race it checks that concurrent units share the lazily built plan and
// its memoized fingerprint safely.
func TestSaturatedSpaceSharesTheFullPlan(t *testing.T) {
	sp := Space{
		Kernels:    []kernels.Kernel{kernels.Figure1(), kernels.FIR()},
		Allocators: core.All(),
		Budgets:    []int{64, 128, 256, 1024},
		Devices:    []fpga.Device{fpga.XCV1000(), fpga.XC2V6000()},
	}
	render := func(workers int) (*ResultSet, string) {
		rs := mustExplore(t, Engine{Workers: workers}, sp)
		var b bytes.Buffer
		if err := (CSVReporter{Pareto: true}).Report(&b, rs); err != nil {
			t.Fatal(err)
		}
		return rs, b.String()
	}
	rs1, csv1 := render(1)
	rs8, csv8 := render(8)
	if csv8 != csv1 || rs8.UniqueSims != rs1.UniqueSims {
		t.Fatalf("8 workers differ from 1: %d vs %d simulations", rs8.UniqueSims, rs1.UniqueSims)
	}
	full := map[string]*hls.Design{}
	for _, r := range rs8.Results {
		if !r.Ok() {
			t.Fatalf("%s: %v", r.Point.ID(), r.Err)
		}
		d := r.Design
		saturated := true
		for _, e := range d.Plan.Order() {
			saturated = saturated && e.Beta == e.Info.Nu
		}
		if !saturated {
			continue
		}
		if first, ok := full[d.Kernel]; !ok {
			full[d.Kernel] = d
		} else if d.Plan != first.Plan {
			t.Errorf("%s: a full plan of its own, want %s's", r.Point.ID(), first.Algorithm)
		}
	}
	if len(full) != 2 {
		t.Fatalf("full allocations on %d kernels, want both", len(full))
	}
	for _, d := range full {
		if err := d.Verify(3); err != nil {
			t.Errorf("%s: %v", d.Kernel, err)
		}
	}
}

// panicAllocator panics on a chosen kernel to exercise worker recovery.
type panicAllocator struct{ kernel string }

func (panicAllocator) Name() string { return "PANIC-RA" }

func (a panicAllocator) Allocate(p *core.Problem) (*core.Allocation, error) {
	if p.Nest.Name == a.kernel || a.kernel == "" {
		panic("injected allocator panic")
	}
	return core.FRRA{}.Allocate(p)
}

// TestExploreSurvivesEstimatorPanic: a panicking estimator must not take
// its worker, or the exploration, down with it. The panic must surface as
// the point's error, with every other point still evaluated. On a two-device space the panic happens
// once per schedule, and every point of the unit that shares the schedule
// records it — in portfolio mode too, where one panicking member fails
// its kernel's every point. An engine sharing an analysis memo memoizes
// the panic with the schedule: its cold run and its warm rerun, which
// schedules nothing, record the same errors.
func TestExploreSurvivesEstimatorPanic(t *testing.T) {
	for _, portfolio := range []bool{false, true} {
		want := testEstimatorPanic(t, "fresh", Engine{Workers: 1}, portfolio)
		shared := Engine{Workers: 1, Analyses: NewAnalysisCache()}
		for _, run := range []string{"shared-cold", "shared-warm"} {
			got := testEstimatorPanic(t, run, shared, portfolio)
			// The warm rerun schedules nothing; the cold run schedules
			// every unit.
			if warm := run == "shared-warm"; (got.Cache.ScheduleMisses == 0) != warm {
				t.Errorf("%s: %d schedule misses", run, got.Cache.ScheduleMisses)
			}
			for i, r := range got.Results {
				if g, w := errText(r.Err), errText(want.Results[i].Err); g != w {
					t.Errorf("%s: %s: error %q, a fresh engine %q", run, r.Point.ID(), g, w)
				}
			}
		}
	}
}

// testEstimatorPanic explores the panic space on e within a deadline and
// checks every point's outcome.
func testEstimatorPanic(t *testing.T, name string, e Engine, portfolio bool) *ResultSet {
	t.Helper()
	sp := Space{
		Kernels:    []kernels.Kernel{kernels.Figure1(), kernels.FIR()},
		Allocators: []core.Allocator{panicAllocator{kernel: "fir"}, core.CPARA{}},
		Budgets:    []int{32, 64},
		Devices:    []fpga.Device{fpga.XCV1000(), fpga.XC2V6000()},
		Scheds:     []SchedVariant{DefaultSchedVariant()},
		Portfolio:  portfolio,
	}
	done := make(chan *ResultSet, 1)
	go func() { //repro:norecover test harness: a panic here fails the test via the timeout below
		// Fewer workers than panicking points: without recovery the pool
		// drains completely and Explore hangs.
		rs := mustExplore(t, e, sp)
		done <- rs
	}()
	var rs *ResultSet
	select {
	case rs = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Explore deadlocked on a panicking estimator")
	}
	if len(rs.Results) != sp.Size() {
		t.Fatalf("got %d results, want %d", len(rs.Results), sp.Size())
	}
	for _, r := range rs.Results {
		panics := r.Point.Kernel.Name == "fir" && (portfolio || r.Point.Allocator.Name() == "PANIC-RA")
		switch {
		case panics && r.Ok():
			t.Errorf("%s: %s: panicking point succeeded", name, r.Point.ID())
		case panics && r.Err.Error() != "estimator panic: injected allocator panic":
			t.Errorf("%s: %s: error %q does not record the panic", name, r.Point.ID(), r.Err)
		case !panics && !r.Ok():
			t.Errorf("%s: %s: unexpected failure: %v", name, r.Point.ID(), r.Err)
		}
	}
	return rs
}

// TestSimCacheByteIdenticalAndDeduplicates pins the cache's dedup
// contract: the sweep runs strictly fewer simulations than it has points
// (the device axis alone guarantees sharing), as many at any worker
// count. Byte-identity against estimating every point without a memo is
// TestUnitDispatchMatchesStandaloneEstimates.
func TestSimCacheByteIdenticalAndDeduplicates(t *testing.T) {
	sp := smallSpace()
	rs := mustExplore(t, Engine{Workers: 4}, sp)
	if rs.UniqueSims == 0 || rs.UniqueSims >= len(rs.Results) {
		t.Errorf("UniqueSims = %d for %d points, want 0 < sims < points", rs.UniqueSims, len(rs.Results))
	}
	// The simulation count is part of the determinism contract.
	if again := mustExplore(t, Engine{Workers: 2}, sp); again.UniqueSims != rs.UniqueSims {
		t.Errorf("UniqueSims varies with worker count: %d vs %d", again.UniqueSims, rs.UniqueSims)
	}
}

func TestExploreRecordsPerPointErrors(t *testing.T) {
	// figure1 has 5 references, so a budget of 3 is infeasible; fir has 3,
	// so the same budget succeeds — the sweep must keep both.
	tiny := fpga.Device{Name: "tiny", Slices: 10, BlockRAMs: 1, BlockRAMBits: 4096}
	sp := Space{
		Kernels:    []kernels.Kernel{kernels.Figure1(), kernels.FIR()},
		Allocators: []core.Allocator{core.FRRA{}},
		Budgets:    []int{3, 64},
		Devices:    []fpga.Device{fpga.XCV1000(), tiny},
	}
	rs := mustExplore(t, Engine{Workers: 3}, sp)
	if len(rs.Results) != 8 {
		t.Fatalf("got %d results", len(rs.Results))
	}
	var okCount, failCount int
	for _, r := range rs.Results {
		switch {
		case r.Point.Budget == 3 && r.Point.Kernel.Name == "figure1":
			if r.Ok() {
				t.Errorf("%s: infeasible budget succeeded", r.Point.ID())
			}
			failCount++
		case r.Point.Device.Name == "tiny":
			if r.Ok() {
				t.Errorf("%s: design fit a 10-slice device", r.Point.ID())
			}
			failCount++
		default:
			if !r.Ok() {
				t.Errorf("%s: unexpected failure: %v", r.Point.ID(), r.Err)
			}
			okCount++
		}
	}
	if okCount != len(rs.Ok()) || failCount != len(rs.Failed()) {
		t.Errorf("Ok/Failed partition wrong: %d/%d vs %d/%d",
			okCount, failCount, len(rs.Ok()), len(rs.Failed()))
	}
	if rs.FirstErr() == nil {
		t.Error("FirstErr = nil with failed points present")
	}
}

func TestExploreSchedAxis(t *testing.T) {
	slow := sched.DefaultConfig()
	slow.Lat.Mem = 4
	sp := Space{
		Kernels:    []kernels.Kernel{kernels.Figure1()},
		Allocators: []core.Allocator{core.FRRA{}},
		Scheds: []SchedVariant{
			DefaultSchedVariant(),
			{Name: "mem4", Config: slow},
		},
	}
	rs := mustExplore(t, Engine{}, sp)
	if len(rs.Results) != 2 {
		t.Fatalf("got %d results", len(rs.Results))
	}
	fast, slowR := rs.Results[0], rs.Results[1]
	if !fast.Ok() || !slowR.Ok() {
		t.Fatalf("sched-axis points failed: %v / %v", fast.Err, slowR.Err)
	}
	if slowR.Design.Cycles <= fast.Design.Cycles {
		t.Errorf("4-cycle RAM latency did not increase cycles: %d vs %d",
			slowR.Design.Cycles, fast.Design.Cycles)
	}
}

func TestDefaultSpaceShape(t *testing.T) {
	sp := DefaultSpace()
	if len(sp.Kernels) != 6 || len(sp.Allocators) != 4 || len(sp.Budgets) < 4 || len(sp.Devices) < 2 {
		t.Fatalf("default space is %d kernels × %d allocators × %d budgets × %d devices, want 6×4×≥4×≥2",
			len(sp.Kernels), len(sp.Allocators), len(sp.Budgets), len(sp.Devices))
	}
	if sp.Size() != len(sp.Kernels)*len(sp.Allocators)*len(sp.Budgets)*len(sp.Devices)*len(sp.Scheds) {
		t.Errorf("Size() = %d, inconsistent with axes", sp.Size())
	}
}
