package dse

import (
	"bytes"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fpga"
	"repro/internal/hls"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/scalarrepl"
	"repro/internal/sched"
	"repro/internal/simcache"
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
	if got := cnt("cache/analysis/hit"); got != c.AnalysisHits {
		t.Errorf("analysis hit = %d, stats AnalysisHits = %d", got, c.AnalysisHits)
	}
	if got := cnt("cache/analysis/miss"); got != c.AnalysisMisses {
		t.Errorf("analysis miss = %d, stats AnalysisMisses = %d", got, c.AnalysisMisses)
	}
	// Without an analysis memo nothing looks a schedule up, and the
	// schedule stages stay unregistered, so CLI metrics docs and shard
	// trailers carry none.
	for _, name := range []string{"cache/schedule/hit", "cache/schedule/miss"} {
		if _, ok := snap.Stages[name]; ok {
			t.Errorf("stage %s registered without a schedule memo", name)
		}
	}
	// With one, a cold and a warm run: the stages count every run's
	// lookups, as the two snapshots do together.
	m = obs.New()
	e = Engine{Workers: 4, Obs: m, Analyses: NewAnalysisCache()}
	cold, warm := mustExplore(t, e, smallSpace()).Cache, mustExplore(t, e, smallSpace()).Cache
	snap = m.Snapshot()
	if got, want := cnt("cache/schedule/hit"), cold.ScheduleHits+warm.ScheduleHits; got != want || want == 0 {
		t.Errorf("schedule hit = %d, stats ScheduleHits = %d", got, want)
	}
	if got, want := cnt("cache/schedule/miss"), cold.ScheduleMisses+warm.ScheduleMisses; got != want || want == 0 {
		t.Errorf("schedule miss = %d, stats ScheduleMisses = %d", got, want)
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

// TestObsWindowUnit: the window stage observes the points dispatched but
// not yet emitted (not nanoseconds) once per emitted point, so its count
// is the point count and its max the stream's peak: smallSpace's eight
// 2-point units all fit the window at once, so the first emission sees
// every point pending.
func TestObsWindowUnit(t *testing.T) {
	m := obs.New()
	e := Engine{Workers: 4, Obs: m}
	var buf bytes.Buffer
	st, err := e.ExploreStream(smallSpace(), TableReporter{}.Stream(&buf))
	if err != nil {
		t.Fatal(err)
	}
	w := st.Obs.Stages["window"]
	if w.Count != int64(st.Points) {
		t.Errorf("window observations = %d, want one per point (%d)", w.Count, st.Points)
	}
	if w.Max != int64(st.Points) {
		t.Errorf("window max %d, want every point (%d)", w.Max, st.Points)
	}
}

// TestObsDisabledHotPathAllocFree pins the disabled path the pipeline
// runs unforked: the handle held when obs is disabled adds zero
// allocations per observation, and neither the disabled point span, a
// nil registry's Do running a closure that assigns captured locals (as
// hls.Analysis.Schedule runs its allocator) nor the disabled allocator
// span allocates.
func TestObsDisabledHotPathAllocFree(t *testing.T) {
	var winStats *obs.StageStats // what e.Obs.Stage("window") returns for a nil-Obs engine
	var m *obs.Metrics           // a nil-Obs engine's registry
	alloc := &core.Allocation{Beta: []int{1, 2}}
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"window observation and point span", func() {
			winStats.Observe(7)
			sp := obs.Begin(nil, nil, 3, "fir", "point")
			sp.End("")
		}},
		{"nil Do assigning captured locals", func() {
			var got *core.Allocation
			var err error
			m.Do(func() { got, err = alloc, nil }, "fir", "alloc", "point")
			if got != alloc || err != nil {
				t.Fatal("the closure did not run")
			}
		}},
		{"allocator span", func() {
			sp := obs.Begin(nil, nil, 3, "fir", "alloc/CPA-RA")
			sp.End("")
		}},
	} {
		if allocs := testing.AllocsPerRun(1000, tc.f); allocs != 0 {
			t.Errorf("disabled %s allocates %.1f/op, want 0", tc.name, allocs)
		}
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

// goroutineLabels returns the calling goroutine's pprof labels as the
// goroutine profile prints them on its "# labels:" line, or "" when it
// has none. The calling goroutine's record is the one whose stack is
// writing the profile.
func goroutineLabels(t *testing.T) string {
	t.Helper()
	var b bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&b, 1); err != nil {
		t.Fatal(err)
	}
	for _, rec := range strings.Split(b.String(), "\n\n") {
		if !strings.Contains(rec, "runtime/pprof.writeGoroutine") {
			continue
		}
		for _, line := range strings.Split(rec, "\n") {
			if l, ok := strings.CutPrefix(line, "# labels: "); ok {
				return l
			}
		}
		return ""
	}
	t.Fatal("the calling goroutine is missing from the goroutine profile")
	return ""
}

// labelAllocator runs its allocator and records the pprof labels it ran
// under.
type labelAllocator struct {
	core.Allocator
	t      *testing.T
	labels *string
}

func (a labelAllocator) Allocate(p *core.Problem) (*core.Allocation, error) {
	*a.labels = goroutineLabels(a.t)
	return a.Allocator.Allocate(p)
}

// TestPointStagesKeepTheirLabels: a worker runs an instrumented unit
// under (kernel, point); within it the allocator runs under (kernel,
// alloc) and hands the goroutine back to the unit's labels, so the
// simulation runs under (kernel, point); the unit leaves no labels
// behind.
func TestPointStagesKeepTheirLabels(t *testing.T) {
	m := obs.New()
	m.SetBase("shard", "0/1")
	var allocLabels, simLabels string
	sp := mustNormalize(t, Space{
		Kernels:    []kernels.Kernel{kernels.FIR()},
		Allocators: []core.Allocator{labelAllocator{core.CPARA{}, t, &allocLabels}},
	})
	pts := sp.Points()
	an, err := hls.Analyze(pts[0].Kernel)
	if err != nil {
		t.Fatal(err)
	}
	sim := func(an *hls.Analysis, plan *scalarrepl.Plan, opt hls.Options) (*sched.Result, error) {
		simLabels = goroutineLabels(t)
		return sched.SimulateGraph(an.Kernel.Nest, an.Graph, plan, opt.Sched)
	}
	ev := &evaluator{sim: sim, m: m, pointStage: m.Stage("point")}
	results := make(chan Result, 1)
	if !ev.unit(an, pts, []int{0}, make([]scheduled, 1), results, make(chan struct{})) {
		t.Fatal("the unit stopped without a stop")
	}
	if r := <-results; !r.Ok() {
		t.Fatalf("point failed: %v", r.Err)
	}
	if want := `{"kernel":"fir", "shard":"0/1", "stage":"alloc"}`; allocLabels != want {
		t.Errorf("allocator ran under %q, want %s", allocLabels, want)
	}
	if want := `{"kernel":"fir", "shard":"0/1", "stage":"point"}`; simLabels != want {
		t.Errorf("simulation ran under %q, want %s", simLabels, want)
	}
	if got := goroutineLabels(t); got != "" {
		t.Errorf("labels after the unit = %s, want none", got)
	}
}

// TestInstrumentationCostPerExploration: on a warm engine, metrics add
// as many allocations to a 96-point sweep (two budgets, 48 schedules) as
// to the 192-point stock sweep (96 schedules) of the same kernels: label
// sets and stages are built once per exploration, and no point or
// schedule allocates for instrumentation. Each count is the fewest
// allocations over several runs; a cost of one allocation per schedule
// would part the two by 48.
//
// The test runs on one P. The runtime allocates a sudog for a goroutine
// that blocks on a channel or a WaitGroup, and a g for a goroutine it
// starts, unless the running P's free list holds one; a freed one goes
// back to the list of the P it was freed on, and Mallocs counts each new
// one. Every sweep starts goroutines and blocks on its workers. With two
// Ps, a process can free those sudogs and gs on one P and allocate them
// on the other in every run, so one side reads more allocations in all
// of its runs and the fewest keeps them. With one P, each sweep takes its
// sudogs and gs from the list the sweep before it filled.
func TestInstrumentationCostPerExploration(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	store, ac := simcache.New(), NewAnalysisCache()
	explore := func(sp Space, m *obs.Metrics) {
		if _, err := (Engine{Workers: 1, SimCache: store, Analyses: ac, Obs: m}).Explore(sp); err != nil {
			t.Fatal(err)
		}
	}
	fewest := func(sp Space, instrument bool) uint64 {
		n := uint64(math.MaxUint64)
		for range 8 {
			var m *obs.Metrics
			if instrument {
				m = obs.New()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			explore(sp, m)
			runtime.ReadMemStats(&after)
			n = min(n, after.Mallocs-before.Mallocs)
		}
		return n
	}
	added := func(sp Space) int {
		explore(sp, nil) // warm the store and the analysis memo
		return int(fewest(sp, true)) - int(fewest(sp, false))
	}
	stock := DefaultSpace()
	half := DefaultSpace()
	half.Budgets = half.Budgets[:2]
	a, b := added(half), added(stock)
	if d := b - a; d < -4 || d > 4 {
		t.Errorf("metrics add %d allocations to the 96-point sweep and %d to the 192-point one; want equal", a, b)
	}
}

// TestWarmRequestInstrumentationBytes: serve runs each request on a warm
// shared store under a fresh metrics registry. Registries with equal base
// pairs share their pprof label sets, so such a request builds none of
// its 18: instrumentation adds about 8 KB to a warm one-worker stock
// sweep, where rebuilding the label sets per registry added 14.5 KB.
func TestWarmRequestInstrumentationBytes(t *testing.T) {
	store, ac := simcache.New(), NewAnalysisCache()
	explore := func(m *obs.Metrics) {
		if _, err := (Engine{Workers: 1, SimCache: store, Analyses: ac, Obs: m}).Explore(DefaultSpace()); err != nil {
			t.Fatal(err)
		}
	}
	fewest := func(instrument bool) uint64 {
		n := uint64(math.MaxUint64)
		for range 8 {
			var m *obs.Metrics
			if instrument {
				m = obs.New()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			explore(m)
			runtime.ReadMemStats(&after)
			n = min(n, after.TotalAlloc-before.TotalAlloc)
		}
		return n
	}
	explore(obs.New()) // warm the store, the analysis memo and the label sets
	if added := int(fewest(true)) - int(fewest(false)); added > 12<<10 {
		t.Errorf("a fresh registry adds %d bytes to a warm sweep, want under 12 KiB", added)
	}
}
