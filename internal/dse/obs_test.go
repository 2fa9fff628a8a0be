package dse

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fpga"
	"repro/internal/kernels"
	"repro/internal/obs"
)

// renderAll streams the space through every reporter format under one
// engine and returns the concatenated output bytes.
func renderAll(t *testing.T, e Engine, sp Space) ([]byte, StreamStats) {
	t.Helper()
	var buf bytes.Buffer
	var last StreamStats
	type mk struct {
		name string
		sr   StreamReporter
	}
	mks := []mk{
		{"table", TableReporter{}.Stream(&buf)},
		{"csv", CSVReporter{Pareto: true}.Stream(&buf)},
		{"json", JSONReporter{Indent: true}.Stream(&buf)},
	}
	for _, m := range mks {
		sr := m.sr
		if e.Obs != nil {
			sr = InstrumentReporter(sr, e.Obs, m.name)
		}
		st, err := e.ExploreStream(sp, sr)
		if err != nil {
			t.Fatalf("%s: ExploreStream: %v", m.name, err)
		}
		last = st
	}
	return buf.Bytes(), last
}

// TestObsOutputByteIdentical is the golden contract of the whole layer:
// attaching metrics, tracing and the instrumented reporter changes no
// output byte in any format.
func TestObsOutputByteIdentical(t *testing.T) {
	sp := smallSpace()
	plain, _ := renderAll(t, Engine{Workers: 4}, sp)
	instr, st := renderAll(t, Engine{Workers: 4, Obs: obs.New(), Trace: obs.NewTracer(256)}, sp)
	if !bytes.Equal(plain, instr) {
		t.Fatalf("instrumented output differs from plain output:\nplain %d bytes, instrumented %d bytes", len(plain), len(instr))
	}
	if st.Obs.Zero() {
		t.Fatal("instrumented run produced a zero obs snapshot")
	}
}

// TestObsStageCoverage pins the stage vocabulary one instrumented
// exploration produces: every layer of the pipeline must report, once per
// point for the point span and once per schedule for the work a device
// does not change, and the trace carries both plan-memo tiers.
func TestObsStageCoverage(t *testing.T) {
	m := obs.New()
	tr := obs.NewTracer(1024)
	e := Engine{Workers: 4, Obs: m, Trace: tr}
	var buf bytes.Buffer
	sp := smallSpace()
	st, err := e.ExploreStream(sp, InstrumentReporter(TableReporter{}.Stream(&buf), m, "table"))
	if err != nil {
		t.Fatal(err)
	}
	snap := st.Obs
	cnt := func(name string) int64 { return snap.Stages[name].Count }
	for _, stage := range []string{
		"analyze", "alloc/FR-RA", "alloc/CPA-RA", "plan", "sim",
		"point", "explore", "window",
		"cache/plan/miss", "report/table",
		// A cold engine-owned run: every kernel's analysis is a miss.
		"cache/analysis/miss",
	} {
		if cnt(stage) == 0 {
			t.Errorf("stage %q missing or empty in snapshot (stages: %v)", stage, snap.Names())
		}
	}
	// Every class-schedule miss schedules exactly once.
	if got, want := cnt("sim/class"), cnt("cache/class/miss"); got == 0 || got != want {
		t.Errorf("class schedules %d != cache/class/miss %d (every miss computes exactly once)", got, want)
	}
	// 16 points: one "point" span each.
	if cnt("point") != 16 {
		t.Errorf("point spans = %d, want 16", cnt("point"))
	}
	// The two devices share each (kernel, allocator, budget) schedule: 8
	// schedules, each allocated, planned, looked up and simulated once.
	const schedules = 8
	if got := cnt("alloc/FR-RA") + cnt("alloc/CPA-RA"); got != schedules {
		t.Errorf("allocator runs = %d, want %d", got, schedules)
	}
	if cnt("plan") != schedules || cnt("sim") != schedules {
		t.Errorf("plan %d, sim %d, want %d each", cnt("plan"), cnt("sim"), schedules)
	}
	hits, misses := cnt("cache/plan/hit"), cnt("cache/plan/miss")
	if hits+misses != schedules {
		t.Errorf("plan tiers hit+miss = %d+%d, want %d", hits, misses, schedules)
	}
	if misses != int64(st.UniqueSims) {
		t.Errorf("plan misses %d != UniqueSims %d", misses, st.UniqueSims)
	}
	// Every plan-memo hit smallSpace had came from the device axis.
	if hits != 0 {
		t.Errorf("plan hits = %d, want 0: no two schedules of smallSpace share a plan", hits)
	}

	// FR-RA's figure1 allocation saturates at 82 registers (b[k][j],
	// ν=600, stays in RAM), so budgets 128 and 256 yield one plan: one
	// miss, then one hit, and the trace's sim spans carry both tiers.
	tr = obs.NewTracer(256)
	sat := Space{
		Kernels:    []kernels.Kernel{kernels.Figure1()},
		Allocators: []core.Allocator{core.FRRA{}},
		Budgets:    []int{128, 256},
		Devices:    []fpga.Device{fpga.XCV1000(), fpga.XC2V6000()},
	}
	rs := mustExplore(t, Engine{Workers: 2, Obs: obs.New(), Trace: tr}, sat)
	if hits, misses := rs.Obs.Stages["cache/plan/hit"].Count, rs.Obs.Stages["cache/plan/miss"].Count; hits != 1 || misses != 1 {
		t.Errorf("saturating budgets: plan hit/miss = %d/%d, want 1/1", hits, misses)
	}
	tiers := map[string]bool{}
	for _, ev := range tr.Events() {
		if ev.Stage == "sim" {
			tiers[ev.Tier] = true
		}
	}
	if !tiers["plan-hit"] || !tiers["plan-miss"] {
		t.Errorf("trace sim spans carry tiers %v, want both plan-hit and plan-miss", tiers)
	}
}

// TestStockSweepReplaysNoTransfers: the estimate never replays transfers,
// so an instrumented stock sweep has no sim/frag/* stage, every
// cache/frag/* tier stays at 0 and so does every entry_* counter.
func TestStockSweepReplaysNoTransfers(t *testing.T) {
	rs := mustExplore(t, Engine{Workers: 2, Obs: obs.New()}, DefaultSpace())
	snap := rs.Obs
	for _, name := range snap.Names() {
		if strings.HasPrefix(name, "sim/frag/") || (strings.HasPrefix(name, "cache/frag/") && snap.Stages[name].Count != 0) {
			t.Errorf("stage %s recorded %d: the sweep touched transfer fragments", name, snap.Stages[name].Count)
		}
	}
	if c := rs.Cache; c.EntryHits+c.EntryDiskHits+c.EntryRemoteHits+c.EntryMisses != 0 {
		t.Errorf("entry counters %+v, want all 0", c)
	}
	if snap.Stages["sim/class"].Count == 0 {
		t.Error("no class was scheduled")
	}
}

// TestObsCacheTiersMirrorSnapshot: the obs cache tier counters and the
// simcache stats Snapshot are two views of the same outcomes.
func TestObsCacheTiersMirrorSnapshot(t *testing.T) {
	m := obs.New()
	e := Engine{Workers: 4, Obs: m}
	rs := mustExplore(t, e, smallSpace())
	c := rs.Cache
	snap := rs.Obs
	cnt := func(name string) int64 { return snap.Stages[name].Count }
	// Non-claimant lookups split between settled hits and single-flight
	// waits; the stats counter lumps them.
	if got := cnt("cache/class/hit") + cnt("cache/class/wait"); got != c.ClassHits {
		t.Errorf("class hit+wait = %d, stats ClassHits = %d", got, c.ClassHits)
	}
	if got := cnt("cache/class/miss"); got != c.ClassMisses {
		t.Errorf("class miss = %d, stats ClassMisses = %d", got, c.ClassMisses)
	}
	if got := cnt("cache/plan/hit"); got != c.PlanHits {
		t.Errorf("plan hit = %d, stats PlanHits = %d", got, c.PlanHits)
	}
	if got := cnt("cache/plan/miss"); got != c.PlanMisses {
		t.Errorf("plan miss = %d, stats PlanMisses = %d", got, c.PlanMisses)
	}
	if got := cnt("cache/analysis/hit") + cnt("cache/analysis/wait"); got != c.AnalysisHits {
		t.Errorf("analysis hit+wait = %d, stats AnalysisHits = %d", got, c.AnalysisHits)
	}
	if got := cnt("cache/analysis/miss"); got != c.AnalysisMisses {
		t.Errorf("analysis miss = %d, stats AnalysisMisses = %d", got, c.AnalysisMisses)
	}
}

// TestObsDisabledResultSetZero: an engine without obs reports a zero
// snapshot everywhere it is threaded.
func TestObsDisabledResultSetZero(t *testing.T) {
	rs := mustExplore(t, Engine{Workers: 2}, smallSpace())
	if !rs.Obs.Zero() {
		t.Fatalf("obs-disabled ResultSet carries a snapshot: %v", rs.Obs.Names())
	}
}

// TestObsWindowUnit: the window stage observes occupancy (results), so its
// max can never exceed the engine window and its count equals the number of
// completed points.
func TestObsWindowUnit(t *testing.T) {
	m := obs.New()
	e := Engine{Workers: 4, Window: 8, Obs: m}
	var buf bytes.Buffer
	st, err := e.ExploreStream(smallSpace(), TableReporter{}.Stream(&buf))
	if err != nil {
		t.Fatal(err)
	}
	w := st.Obs.Stages["window"]
	if w.Count != int64(st.Points) {
		t.Errorf("window observations = %d, want one per point (%d)", w.Count, st.Points)
	}
	if w.Max > int64(st.MaxWindow) {
		t.Errorf("window max %d exceeds MaxWindow %d", w.Max, st.MaxWindow)
	}
}

// TestObsDisabledHotPathAllocFree pins the satellite contract for the
// stream-window hot loop: the handle held when obs is disabled adds zero
// allocations per observation, and the disabled point-span path allocates
// nothing either.
func TestObsDisabledHotPathAllocFree(t *testing.T) {
	var winStats *obs.StageStats // what e.Obs.Stage("window") returns for a nil-Obs engine
	allocs := testing.AllocsPerRun(1000, func() {
		winStats.Observe(7)
		sp := obs.Begin(nil, nil, 3, "fir", "point")
		sp.End("")
	})
	if allocs != 0 {
		t.Fatalf("disabled window/point instrumentation allocates %.1f/op, want 0", allocs)
	}
}

// TestInstrumentReporterPassThrough: nil metrics returns the reporter
// unwrapped; non-nil wraps and times without altering behavior.
func TestInstrumentReporterPassThrough(t *testing.T) {
	var buf bytes.Buffer
	sr := TableReporter{}.Stream(&buf)
	if got := InstrumentReporter(sr, nil, "table"); got != sr {
		t.Fatal("nil metrics should return the reporter unwrapped")
	}
	m := obs.New()
	wrapped := InstrumentReporter(sr, m, "table")
	if wrapped == sr {
		t.Fatal("metrics attached should wrap the reporter")
	}
	if err := wrapped.Begin(mustNormalize(t, smallSpace()), 0); err != nil {
		t.Fatal(err)
	}
	if err := wrapped.End(StreamStats{}); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().Stages["report/table"].Count; got != 2 {
		t.Fatalf("report/table count = %d, want 2 (Begin + End)", got)
	}
}

func mustNormalize(t *testing.T, sp Space) Space {
	t.Helper()
	n, err := sp.normalized()
	if err != nil {
		t.Fatal(err)
	}
	return n
}
