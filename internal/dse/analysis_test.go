package dse

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/fpga"
	"repro/internal/hls"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/sched"
	"repro/internal/simcache"
)

// TestAnalyzeKernelsFirstErrorWins: when a kernel's analysis fails, the
// exploration fails with that kernel's error, although a later kernel's
// analysis panics and the pool holds fewer goroutines than kernels.
// Without a memo the panic is recovered inside memo.Do; with one it
// happens while fingerprinting the kernel, before the memo, and the
// analyzing goroutine recovers it.
func TestAnalyzeKernelsFirstErrorWins(t *testing.T) {
	bad := kernels.Kernel{Name: "bad", Nest: &ir.Nest{Name: "bad"}} // no loops
	boom := kernels.Kernel{Name: "boom"}                            // no nest: analysis panics
	for _, ac := range []*AnalysisCache{nil, NewAnalysisCache()} {
		for _, workers := range []int{1, 4} {
			e := Engine{Workers: workers, Analyses: ac}
			sp := Space{Kernels: []kernels.Kernel{kernels.Figure1(), bad, boom, kernels.FIR()}}
			if _, err := e.analyzeKernels(sp, nil, newSimCache(simcache.New(), nil, nil)); err == nil || !strings.Contains(err.Error(), `nest "bad": no loops`) {
				t.Errorf("memo %t, %d workers: error %v, want bad's", ac != nil, workers, err)
			}
			sp.Kernels = []kernels.Kernel{kernels.FIR(), boom}
			if _, err := e.analyzeKernels(sp, nil, newSimCache(simcache.New(), nil, nil)); err == nil || !strings.Contains(err.Error(), "panic") {
				t.Errorf("memo %t, %d workers: error %v, want boom's panic", ac != nil, workers, err)
			}
		}
	}
}

// TestAnalysisCacheMemoizes: the memo answers repeats with the object it
// computed first, and counts them as analysis hits.
func TestAnalysisCacheMemoizes(t *testing.T) {
	ac := NewAnalysisCache()
	store := simcache.New()
	k := kernels.Figure1()
	first, err := ac.Get(k, store)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ac.Get(k, store)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("memo returned a different object on the second lookup")
	}
	if s := store.Snapshot(); s.AnalysisMisses != 1 || s.AnalysisHits != 1 {
		t.Errorf("stats %+v, want 1 analysis miss + 1 memo hit", s)
	}
	want, err := hls.Analyze(k)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Infos, want.Infos) {
		t.Error("cached analysis diverges from a fresh one")
	}
}

// TestAnalysisCacheNil: a nil cache memoizes nothing — it analyzes on
// every call and counts one miss per call.
func TestAnalysisCacheNil(t *testing.T) {
	var ac *AnalysisCache
	store := simcache.New()
	k := kernels.Figure1()
	first, err := ac.Get(k, store)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ac.Get(k, store)
	if err != nil {
		t.Fatal(err)
	}
	if first == second {
		t.Error("a nil cache returned one object twice")
	}
	if s := store.Snapshot(); s.AnalysisMisses != 2 || s.AnalysisHits != 0 {
		t.Errorf("stats %+v, want 2 analysis misses and no hit", s)
	}
}

// TestAnalysisCachePoisonedBlobFallsBack: an analysis blob an older writer
// left in a shared directory is never read nor deleted. The one planted
// here, at the name the retired kind "a" gave figure1's key, is a
// well-formed a1 envelope around another kernel's profile; figure1's
// analysis is computed afresh and counted as a miss.
func TestAnalysisCachePoisonedBlobFallsBack(t *testing.T) {
	dir := t.TempDir()
	fig := kernels.Figure1()
	payload := "A1 3 3\n4096 4096 64 1\n4096 4096 64 1\n65536 4096 64 1\n"
	blob := fmt.Sprintf("a1 %d %x\n%s", len(payload), sha256.Sum256([]byte(payload)), payload)
	key := sha256.Sum256([]byte(hls.KernelFingerprint(fig)))
	name := filepath.Join(dir, "a"+hex.EncodeToString(key[:]))
	if err := os.WriteFile(name, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := simcache.NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewAnalysisCache().Get(fig, store)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hls.Analyze(fig)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Infos, want.Infos) || got.Graph.Fingerprint() != want.Graph.Fingerprint() {
		t.Error("the planted blob changed figure1's analysis")
	}
	if s := store.Snapshot(); s.AnalysisMisses != 1 || s.AnalysisDiskHits != 0 {
		t.Errorf("stats %+v, want 1 analysis miss and no disk hit", s)
	}
	if left, err := os.ReadFile(name); err != nil || string(left) != blob {
		t.Errorf("the planted blob was touched: %q, %v", left, err)
	}
}

// TestAnalysisCacheSingleFlight: concurrent lookups of one kernel share
// one computation and one store miss.
func TestAnalysisCacheSingleFlight(t *testing.T) {
	ac := NewAnalysisCache()
	store := simcache.New()
	k := kernels.MAT()
	const n = 16
	results := make([]*hls.Analysis, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() { //repro:norecover Get converts analysis panics to errors itself
			defer wg.Done()
			an, err := ac.Get(k, store)
			if err != nil {
				t.Error(err)
			}
			results[i] = an
		}()
	}
	wg.Wait()
	for _, an := range results[1:] {
		if an != results[0] {
			t.Fatal("concurrent lookups returned distinct objects")
		}
	}
	s := store.Snapshot()
	if s.AnalysisMisses != 1 {
		t.Errorf("analysis misses = %d, want 1", s.AnalysisMisses)
	}
	if s.AnalysisHits+s.AnalysisMisses != n {
		t.Errorf("hits+misses = %d, want %d (tiers must sum to lookups)", s.AnalysisHits+s.AnalysisMisses, n)
	}
}

// TestAnalysisCacheEngineShared: two explorations under one engine-level
// memo — the second run's analyze stage is all memo hits.
func TestAnalysisCacheEngineShared(t *testing.T) {
	store := simcache.New()
	e := Engine{Workers: 2, SimCache: store, Analyses: NewAnalysisCache()}
	sp := smallSpace()
	first := mustExplore(t, e, sp)
	if first.Cache.AnalysisMisses == 0 {
		t.Fatal("cold run reported no analysis misses")
	}
	second := mustExplore(t, e, sp)
	if second.Cache.AnalysisMisses != 0 {
		t.Errorf("warm run reported %d analysis misses, want 0", second.Cache.AnalysisMisses)
	}
	if second.Cache.AnalysisHits == 0 {
		t.Error("warm run reported no analysis hits")
	}
	// The per-run snapshot delta isolates each run's lookups.
	if first.Cache.AnalysisHits != 0 {
		t.Errorf("cold run inherited %d hits from nowhere", first.Cache.AnalysisHits)
	}
}

// twoKernels explores a then b under one engine and returns b's output,
// with b's output under a fresh engine: a shared memo must not change it.
func twoKernels(t *testing.T, sp Space, a, b kernels.Kernel) (got, want *ResultSet) {
	t.Helper()
	shared := Engine{Workers: 2, Analyses: NewAnalysisCache()}
	sp.Kernels = []kernels.Kernel{a}
	mustExplore(t, shared, sp)
	sp.Kernels = []kernels.Kernel{b}
	return mustExplore(t, shared, sp), mustExplore(t, Engine{Workers: 2}, sp)
}

// sameDesigns compares two result sets point by point, as the reporters
// read them.
func sameDesigns(t *testing.T, got, want *ResultSet) {
	t.Helper()
	for i, r := range got.Results {
		if g, w := designText(r.Design)+errText(r.Err), designText(want.Results[i].Design)+errText(want.Results[i].Err); g != w {
			t.Errorf("%s: shared memo gives %s, a fresh engine %s", r.Point.ID(), g, w)
		}
	}
}

// TestAnalysisCacheKeysOperatorsAndWidths: two kernels of one name whose
// nests differ only in the body's operator and element widths get their
// own analyses, since the memo key renders the whole nest.
func TestAnalysisCacheKeysOperatorsAndWidths(t *testing.T) {
	mk := func(op string, bits int) kernels.Kernel {
		src := fmt.Sprintf(`
kernel k;
array x[64]:%[1]d;
array y[64]:%[1]d;
array o[64]:%[1]d;
for i = 0..64 {
  o[i] = x[i] %[2]s y[i];
}
`, bits, op)
		return kernels.Kernel{Name: "k", Rmax: 64, Nest: dsl.MustParse(src)}
	}
	got, want := twoKernels(t, smallSpace(), mk("+", 8), mk("*", 16))
	sameDesigns(t, got, want)
}

// TestAnalysisCacheBudgetZero: at budget 0 a point allocates under its own
// kernel's Rmax, not under that of the kernel the shared memo analyzed.
func TestAnalysisCacheBudgetZero(t *testing.T) {
	big, small := kernels.FIR(), kernels.FIR()
	big.Rmax, small.Rmax = 64, 8
	sp := Space{
		Allocators: core.All(),
		Budgets:    []int{0},
		Devices:    []fpga.Device{fpga.XCV1000()},
		Scheds:     []SchedVariant{DefaultSchedVariant()},
	}
	got, want := twoKernels(t, sp, big, small)
	sameDesigns(t, got, want)
	for _, r := range got.Results {
		if !r.Ok() || r.Design.Registers > small.Rmax {
			t.Errorf("%s: %s, want at most %d registers", r.Point.ID(), designText(r.Design)+errText(r.Err), small.Rmax)
		}
	}
}

// reportAll renders rs in every report format.
func reportAll(t *testing.T, rs *ResultSet) string {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range []Reporter{TableReporter{}, CSVReporter{Pareto: true}, JSONReporter{Indent: true}} {
		if err := r.Report(&buf, rs); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// twoSpaces explores a, then b, on one engine that shares an analysis
// memo, and returns b's result set with its bytes there and on a fresh
// engine: the units a scheduled first must not change b's output.
func twoSpaces(t *testing.T, a, b Space) (rs *ResultSet, got, want string) {
	t.Helper()
	shared := Engine{Workers: 2, Analyses: NewAnalysisCache()}
	mustExplore(t, shared, a)
	rs = mustExplore(t, shared, b)
	return rs, reportAll(t, rs), reportAll(t, mustExplore(t, Engine{Workers: 2}, b))
}

// TestScheduleMemoKey: the shared memo keeps a unit's schedule under
// every input Schedule reads, so a space that differs from an earlier one
// in any of them renders as on a fresh engine. Each case differs from the
// base space in one input only, and the last reads the plain units back
// as portfolio members.
func TestScheduleMemoKey(t *testing.T) {
	base := func() Space {
		return Space{
			Kernels:    []kernels.Kernel{kernels.FIR()},
			Allocators: core.All(),
			Budgets:    []int{16},
			Devices:    []fpga.Device{fpga.XCV1000()},
			Scheds:     []SchedVariant{DefaultSchedVariant()},
		}
	}
	nest := func(name string, k kernels.Kernel) kernels.Kernel {
		k.Name = name
		return k
	}
	big, small := kernels.FIR(), kernels.FIR()
	big.Rmax, small.Rmax = 64, 8
	pairs := kernels.Kernel{Name: "pairs", Rmax: 16, Nest: dsl.MustParse(`
kernel pairs;
array x[128]:16;
array o[64]:16;
for i = 0..64 {
  o[i] = x[2*i] + x[2*i+1];
}
`)}
	cases := []struct {
		name   string
		edit   func(a, b *Space)
		hits   int64 // schedule hits and misses b must make
		misses int64
	}{
		{"budget", func(_, b *Space) { b.Budgets = []int{64} }, 0, 4},
		{"latency", func(_, b *Space) {
			cfg := sched.DefaultConfig()
			cfg.Lat.Op[ir.OpMul] = 5
			b.Scheds = []SchedVariant{{Name: "default", Config: cfg}}
		}, 0, 4},
		{"ports", func(a, b *Space) {
			// No allocator's cycles on the six kernels depend on the
			// port count; this nest reads x twice per iteration.
			a.Kernels = []kernels.Kernel{pairs}
			b.Kernels = []kernels.Kernel{pairs}
			cfg := sched.DefaultConfig()
			cfg.PortsPerRAM = 2
			b.Scheds = []SchedVariant{{Name: "default", Config: cfg}}
		}, 0, 4},
		{"nest", func(a, b *Space) {
			a.Kernels = []kernels.Kernel{nest("k", kernels.FIR())}
			b.Kernels = []kernels.Kernel{nest("k", kernels.MAT())}
		}, 0, 4},
		{"budget0-rmax", func(a, b *Space) {
			a.Budgets, b.Budgets = []int{0}, []int{0}
			a.Kernels, b.Kernels = []kernels.Kernel{big}, []kernels.Kernel{small}
		}, 0, 4},
		{"portfolio-after-plain", func(_, b *Space) { b.Portfolio = true }, 4, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, b := base(), base()
			c.edit(&a, &b)
			rs, got, want := twoSpaces(t, a, b)
			if got != want {
				t.Errorf("a shared memo renders b differently from a fresh engine")
			}
			if rs.Cache.ScheduleHits != c.hits || rs.Cache.ScheduleMisses != c.misses {
				t.Errorf("b made %d schedule hits and %d misses, want %d and %d",
					rs.Cache.ScheduleHits, rs.Cache.ScheduleMisses, c.hits, c.misses)
			}
		})
	}
}

// exploreTogether runs two explorations of sp on e at once and returns
// their result sets.
func exploreTogether(t *testing.T, e Engine, sp Space) [2]*ResultSet {
	t.Helper()
	var rss [2]*ResultSet
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range rss {
		wg.Add(1)
		go func() { //repro:norecover Explore recovers its workers; a panic here fails the test
			defer wg.Done()
			<-start
			rs, err := e.Explore(sp)
			if err != nil {
				t.Error(err)
				return
			}
			rss[i] = rs
		}()
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return rss
}

// TestScheduleMemoConcurrentColdExplorations is the memo's race check
// (run it under -race): two explorations start cold on one analysis memo
// at once, each on a store of its own or both on one shared store. Each
// renders a fresh engine's bytes and looks up every kernel and unit once,
// and between them they compute each analysis and unit schedule once: a
// key is claimed by one of them, and the other finds it settled or waits
// for it. On a shared store they also compute each class schedule once,
// so their misses sum to a sequential cold exploration's (6 analyses, 96
// schedules on the stock space); a difference of store snapshots taken
// around one exploration would count the other's lookups too.
func TestScheduleMemoConcurrentColdExplorations(t *testing.T) {
	cases := []struct {
		name   string
		sp     Space
		shared bool
	}{
		{"own stores", unitSpace(), false},
		{"shared store", DefaultSpace(), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seq := mustExplore(t, Engine{Workers: 2}, c.sp)
			want := reportAll(t, seq)
			analyses := int64(len(c.sp.Kernels))
			units := analyses * int64(len(c.sp.Allocators)*len(c.sp.Budgets)*len(c.sp.Scheds))
			for round := range 5 {
				e := Engine{Workers: 2, Analyses: NewAnalysisCache()}
				if c.shared {
					e.SimCache = simcache.New()
				}
				var misses simcache.Snapshot
				for i, rs := range exploreTogether(t, e, c.sp) {
					if got := reportAll(t, rs); got != want {
						t.Errorf("round %d, exploration %d renders differently from a fresh engine", round, i)
					}
					n := rs.Cache
					if n.AnalysisHits+n.AnalysisMisses != analyses || n.ScheduleHits+n.ScheduleMisses != units {
						t.Errorf("round %d, exploration %d: %+v, want %d analysis and %d schedule lookups", round, i, n, analyses, units)
					}
					misses.AnalysisMisses += n.AnalysisMisses
					misses.ScheduleMisses += n.ScheduleMisses
					misses.ClassMisses += n.ClassMisses
				}
				if misses.AnalysisMisses != analyses || misses.ScheduleMisses != units {
					t.Errorf("round %d: %d analysis and %d schedule misses between them, want %d and %d",
						round, misses.AnalysisMisses, misses.ScheduleMisses, analyses, units)
				}
				if c.shared && misses.ClassMisses != seq.Cache.ClassMisses {
					t.Errorf("round %d: %d class misses between them, want a sequential cold run's %d", round, misses.ClassMisses, seq.Cache.ClassMisses)
				}
			}
		})
	}
}

// TestConcurrentWarmExplorationsCountTheirOwnLookups: two warm stock
// explorations at once on one store and one analysis memo each report
// exactly what a sequential warm exploration reports — 6 analysis hits
// and 96 schedule hits, nothing else — never the other's lookups, in
// each of 50 rounds. A difference of store snapshots taken around one
// exploration would count both.
func TestConcurrentWarmExplorationsCountTheirOwnLookups(t *testing.T) {
	e := Engine{Workers: 2, SimCache: simcache.New(), Analyses: NewAnalysisCache()}
	sp := DefaultSpace()
	mustExplore(t, e, sp)
	want := mustExplore(t, e, sp).Cache
	if want != (simcache.Snapshot{AnalysisHits: 6, ScheduleHits: 96}) {
		t.Fatalf("a sequential warm exploration counts %+v, want 6 analysis and 96 schedule hits only", want)
	}
	for round := range 50 {
		for i, rs := range exploreTogether(t, e, sp) {
			if rs.Cache != want {
				t.Fatalf("round %d, exploration %d counts %+v, want %+v", round, i, rs.Cache, want)
			}
		}
	}
}
