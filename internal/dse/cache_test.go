package dse

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/hls"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/scalarrepl"
	"repro/internal/sched"
	"repro/internal/simcache"
)

// TestSimCachePanicDoesNotPoisonEntry: a simulation panic must be memoized
// as the entry's error, "simulation panic: …", not consume the entry and
// hand (nil, nil) to every later point sharing the key.
func TestSimCachePanicDoesNotPoisonEntry(t *testing.T) {
	k := kernels.Figure1()
	prob, err := core.NewProblem(k.Nest, k.Rmax, dfg.DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := (core.CPARA{}).Allocate(prob)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := scalarrepl.NewPlan(k.Nest, prob.Infos, alloc.Beta)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate on a nil graph: the simulator dereferences it and panics.
	// A plan from another nest cannot serve here: SimulateGraph rejects it
	// with an error before indexing anything.
	an := &hls.Analysis{Kernel: k}
	c := newSimCache(simcache.New(), nil, newVariantLats([]SchedVariant{DefaultSchedVariant()}))
	var first error
	for call := 0; call < 2; call++ {
		res, err := c.simulate(an, plan, hls.Options{Sched: sched.DefaultConfig()})
		if res != nil || err == nil || !strings.HasPrefix(err.Error(), "simulation panic: ") {
			t.Fatalf("call %d: res=%v err=%v, want nil result and the memoized panic error", call, res, err)
		}
		if first == nil {
			first = err
		} else if err.Error() != first.Error() {
			t.Fatalf("call %d: error %q, first call %q", call, err, first)
		}
	}
	if n := c.memo.Len(); n != 1 {
		t.Errorf("cache holds %d entries, want the single poisoned-key entry", n)
	}
}

// TestEngineSimCachePrecedence: a provided SimCache wins over SimCacheDir,
// whose directory is then never created, and it and a provided analysis
// memo accumulate across explorations — the long-running-service
// contract. A repeated exploration recomputes nothing: no analysis,
// schedule or class miss, no class lookup at all, no allocator, plan or
// simulation stage, every unit a schedule hit, and the same bytes. The
// class store still serves new units: after the stock space without
// budget 128, the full space's 24 budget-128 units schedule afresh and
// find every class they need in the store.
func TestEngineSimCachePrecedence(t *testing.T) {
	shared := simcache.New()
	dir := filepath.Join(t.TempDir(), "never-created")
	m := obs.New()
	e := Engine{Workers: 2, SimCache: shared, Analyses: NewAnalysisCache(), SimCacheDir: dir, Obs: m}
	sp := smallSpace()
	cold := mustExplore(t, e, sp)
	first := shared.Snapshot()
	if first.ClassMisses == 0 || first.ScheduleMisses == 0 {
		t.Fatalf("shared cache saw no lookups: %+v", first)
	}
	stages := func() map[string]int64 {
		counts := map[string]int64{}
		for name, st := range m.Snapshot().Stages {
			if strings.HasPrefix(name, "alloc/") || name == "plan" || name == "sim" {
				counts[name] = st.Count
			}
		}
		return counts
	}
	before := stages()
	warm := mustExplore(t, e, sp)
	second := shared.Snapshot().Sub(first)
	if second.ClassMisses != 0 || second.AnalysisMisses != 0 || second.ScheduleMisses != 0 {
		t.Errorf("second exploration recomputed through the shared cache: %+v", second)
	}
	if second.ClassHits != 0 || second.PlanHits+second.PlanMisses != 0 {
		t.Errorf("second exploration simulated: %+v", second)
	}
	if second.ScheduleHits != first.ScheduleMisses {
		t.Errorf("second exploration found %d units in the memo, want all %d", second.ScheduleHits, first.ScheduleMisses)
	}
	if after := stages(); len(before) == 0 || !maps.Equal(after, before) {
		t.Errorf("second exploration ran allocator, plan or simulation stages: %v, then %v", before, after)
	}
	if reportAll(t, warm) != reportAll(t, cold) {
		t.Error("second exploration renders differently")
	}
	if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("SimCacheDir was created beside a provided SimCache: %v", err)
	}

	store := simcache.New()
	e = Engine{Workers: 2, SimCache: store, Analyses: NewAnalysisCache()}
	part := DefaultSpace()
	part.Budgets = []int{16, 32, 64}
	mustExplore(t, e, part)
	full := mustExplore(t, e, DefaultSpace())
	if c := full.Cache; c.ScheduleMisses != 24 || c.ScheduleHits != 72 || c.ClassMisses != 0 || c.ClassHits == 0 {
		t.Errorf("full space after the first three budgets: %+v, want 24 schedule misses, 72 hits, and class hits only", c)
	}
	if reportAll(t, full) != reportAll(t, mustExplore(t, Engine{Workers: 2}, DefaultSpace())) {
		t.Error("full space renders differently from a fresh engine")
	}
}

// TestPoisonedClassFileIgnored: a class file that an older build left in
// a shared directory is never read. Every class of FIR's CPA-RA plan at
// budget 16 is planted at the name older builds gave its key (c + the
// SHA-256 of the key sched.Simulator renders) with a wrong, well-formed
// value; shard 0 of 2 of the stock space, which owns that unit, still
// renders the in-memory run's bytes over the directory, and reports no
// class disk hit.
func TestPoisonedClassFileIgnored(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultSchedVariant().Config
	keys := classKeys(t, kernels.FIR(), core.CPARA{}, 16, cfg)
	for _, key := range keys {
		name := filepath.Join(dir, fmt.Sprintf("c%x", sha256.Sum256([]byte(key))))
		if err := os.WriteFile(name, []byte("1 1 1\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	render := func(e Engine) (string, *ResultSet) {
		t.Helper()
		rs, err := e.ExploreShard(DefaultSpace(), 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := (CSVReporter{Pareto: true}).Report(&buf, rs); err != nil {
			t.Fatal(err)
		}
		return buf.String(), rs
	}
	want, _ := render(Engine{Workers: 1})
	got, rs := render(Engine{Workers: 1, SimCacheDir: dir})
	if got != want {
		t.Error("planted class files changed the shard's bytes")
	}
	if rs.Cache.ClassDiskHits != 0 || rs.Cache.ClassMisses == 0 {
		t.Errorf("stats %+v, want class misses and no class disk hit", rs.Cache)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(keys) {
		t.Errorf("directory holds %d files, want the %d planted", len(ents), len(keys))
	}
}

// classKeys renders the class-store key of every class of kernel k's plan
// under alg at budget as older builds formed them, the names their class
// files carry: the body DFG fingerprint, the latency model's fingerprint
// and the RAM port count, then the keys of the class's register-resident
// references in plan order. (sched.Simulator now ends the key with the
// class's signature instead.) A class is the hit pattern of one innermost
// loop position.
func classKeys(t *testing.T, k kernels.Kernel, alg core.Allocator, budget int, cfg sched.Config) []string {
	t.Helper()
	an, err := hls.Analyze(k)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := core.NewProblemFrom(k.Nest, an.Infos, an.Graph, budget, cfg.Lat)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := alg.Allocate(prob)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := scalarrepl.NewPlan(k.Nest, prob.Infos, alloc.Beta)
	if err != nil {
		t.Fatal(err)
	}
	prefix := an.Graph.Fingerprint() + "|" + cfg.Lat.Fingerprint() + "|P" + strconv.Itoa(cfg.PortsPerRAM) + "|"
	inner := k.Nest.Loops[k.Nest.Depth()-1]
	var keys []string
	for v := inner.Lo; v < inner.Hi; v += inner.Step {
		var b strings.Builder
		for _, e := range plan.Order() {
			if e.HitInner(v) {
				b.WriteString(e.Info.Key())
				b.WriteByte(',')
			}
		}
		if key := prefix + b.String(); !slices.Contains(keys, key) {
			keys = append(keys, key)
		}
	}
	return keys
}
