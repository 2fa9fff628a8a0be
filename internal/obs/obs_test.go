package obs

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStageObserve(t *testing.T) {
	m := New()
	s := m.Stage("x")
	for _, v := range []int64{0, 1, 2, 3, 4, 1000, 1 << 40} {
		s.Observe(v)
	}
	s.Add(3) // counter-only bumps

	snap := m.Snapshot()
	ss, ok := snap.Stages["x"]
	if !ok {
		t.Fatalf("stage x missing from snapshot: %+v", snap)
	}
	if ss.Count != 10 {
		t.Errorf("count = %d, want 10 (7 observations + Add(3))", ss.Count)
	}
	if want := int64(0 + 1 + 2 + 3 + 4 + 1000 + 1<<40); ss.Sum != want {
		t.Errorf("sum = %d, want %d", ss.Sum, want)
	}
	if ss.Max != 1<<40 {
		t.Errorf("max = %d, want %d", ss.Max, int64(1<<40))
	}
	total := int64(0)
	for _, b := range ss.Buckets {
		total += b
	}
	if total != 7 {
		t.Errorf("histogram holds %d observations, want 7", total)
	}
	// Bucket boundaries: 0 → bucket 0; 1 → bucket 1; 2,3 → bucket 2; 4 → 3.
	for i, want := range []int64{1, 1, 2, 1} {
		if ss.Buckets[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, ss.Buckets[i], want)
		}
	}
}

func TestBucketBounds(t *testing.T) {
	for _, v := range []int64{0, 1, 7, 8, 1023, 1 << 35, 1 << 62} {
		b := bucketOf(v)
		hi := BucketHi(b)
		if v >= hi {
			t.Errorf("value %d landed in bucket %d with upper bound %d", v, b, hi)
		}
		if b > 0 && v < BucketHi(b-1) {
			t.Errorf("value %d in bucket %d is below the previous bound %d", v, b, BucketHi(b-1))
		}
	}
}

func TestQuantile(t *testing.T) {
	m := New()
	s := m.Stage("q")
	for i := 0; i < 90; i++ {
		s.Observe(10) // bucket 4, hi 16
	}
	for i := 0; i < 10; i++ {
		s.Observe(100000) // bucket 17, hi 131072
	}
	ss := m.Snapshot().Stages["q"]
	if got := ss.Quantile(0.5); got != 16 {
		t.Errorf("p50 = %d, want 16", got)
	}
	if got := ss.Quantile(0.99); got != 131072 {
		t.Errorf("p99 = %d, want 131072", got)
	}
	if got := (StageSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %d, want 0", got)
	}
}

// observeSeq replays a deterministic observation sequence into a Metrics.
type obsOp struct {
	stage string
	v     int64
	add   bool // Add instead of Observe
}

func randOps(rng *rand.Rand, n int) []obsOp {
	stages := []string{"alloc/FR-RA", "sim", "window", "report/json"}
	ops := make([]obsOp, n)
	for i := range ops {
		ops[i] = obsOp{
			stage: stages[rng.Intn(len(stages))],
			v:     rng.Int63n(1 << 30),
			add:   rng.Intn(4) == 0,
		}
	}
	return ops
}

func replayOps(ops []obsOp) Snapshot {
	m := New()
	for _, op := range ops {
		s := m.Stage(op.stage)
		if op.add {
			s.Add(op.v)
		} else {
			s.Observe(op.v)
		}
	}
	return m.Snapshot()
}

// TestSnapshotAddMatchesConcatenatedRun is the merge-semantics property
// the shard trailer design rests on: summing the snapshots of two
// independently instrumented runs equals instrumenting the concatenation.
func TestSnapshotAddMatchesConcatenatedRun(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		a := randOps(rng, rng.Intn(200))
		b := randOps(rng, rng.Intn(200))
		merged := replayOps(a).Add(replayOps(b))
		concat := replayOps(append(append([]obsOp{}, a...), b...))
		if !reflect.DeepEqual(merged, concat) {
			t.Fatalf("trial %d: Add(a,b) != instrument(a++b):\n merged %+v\n concat %+v", trial, merged, concat)
		}
	}
	// Commutativity on a fixed pair.
	a, b := replayOps(randOps(rng, 100)), replayOps(randOps(rng, 100))
	if !reflect.DeepEqual(a.Add(b), b.Add(a)) {
		t.Fatal("Snapshot.Add is not commutative")
	}
	// Zero is the identity.
	if !reflect.DeepEqual(a.Add(Snapshot{}), a) || !reflect.DeepEqual(Snapshot{}.Add(a), a) {
		t.Fatal("zero Snapshot is not the identity of Add")
	}
}

func TestSnapshotZeroAndNames(t *testing.T) {
	if !(Snapshot{}).Zero() {
		t.Error("empty snapshot should be Zero")
	}
	if (&Metrics{}).Snapshot().Stages != nil {
		t.Error("metrics with no stages should snapshot to a nil map")
	}
	m := New()
	m.Stage("b").Inc()
	m.Stage("a").Inc()
	if got := m.Snapshot().Names(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("Names = %v, want sorted [a b]", got)
	}
}

func TestSummary(t *testing.T) {
	m := New()
	m.Stage("sim").Observe(int64(2 * time.Millisecond))
	m.Stage("sim").Observe(int64(4 * time.Millisecond))
	m.Stage("cache/frag/hit").Add(17)
	sum := m.Snapshot().Summary(5)
	if !strings.Contains(sum, "sim 2×3ms") {
		t.Errorf("summary %q should carry sim 2×3ms", sum)
	}
	if !strings.Contains(sum, "cache/frag/hit 17") {
		t.Errorf("summary %q should carry the counter-only stage as a bare count", sum)
	}
	// Top-k truncation keeps the largest Sum first.
	if top1 := m.Snapshot().Summary(1); !strings.HasPrefix(top1, "sim ") || strings.Contains(top1, "cache") {
		t.Errorf("Summary(1) = %q, want only the sim stage", top1)
	}
}

// TestDisabledPathsAllocFree pins the contract the fragment-walker and
// stream-window hot loops rely on: with obs disabled (nil Metrics, nil
// StageStats, nil Tracer, zero Span/Timer) every call added to those loops
// performs zero allocations.
func TestDisabledPathsAllocFree(t *testing.T) {
	var m *Metrics
	var s *StageStats
	var tr *Tracer
	f := func() {}
	allocs := testing.AllocsPerRun(1000, func() {
		s.Observe(7)
		s.Inc()
		s.Add(3)
		tm := s.Start()
		tm.Stop()
		sp := Begin(m, tr, 0, "fir", "sim")
		sp.End("")
		_ = m.Stage("window")
		tr.Record(Event{})
		m.Do(f, "fir", "point", "")
		m.SetBase()
	})
	if allocs != 0 {
		t.Fatalf("disabled obs path allocates %.1f/op, want 0", allocs)
	}
}

func TestSpanRecordsMetricsAndTrace(t *testing.T) {
	m := New()
	tr := NewTracer(16)
	sp := Begin(m, tr, 42, "fir", "sim")
	sp.End("plan-hit")
	ss := m.Snapshot().Stages["sim"]
	if ss.Count != 1 {
		t.Fatalf("sim stage count = %d, want 1", ss.Count)
	}
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("tracer holds %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Point != 42 || ev.Kernel != "fir" || ev.Stage != "sim" || ev.Tier != "plan-hit" {
		t.Errorf("event = %+v, want point 42 kernel fir stage sim tier plan-hit", ev)
	}
	if ev.DurNs < 0 || ev.StartNs < 0 {
		t.Errorf("event has negative timing: %+v", ev)
	}
}

func TestConcurrentObserve(t *testing.T) {
	m := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Stage("hot").Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := m.Snapshot().Stages["hot"].Count; got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
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

func TestDoAppliesLabels(t *testing.T) {
	m := New()
	m.SetBase("shard", "0/3")
	var inside string
	m.Do(func() { inside = goroutineLabels(t) }, "fir", "point", "")
	if want := `{"kernel":"fir", "shard":"0/3", "stage":"point"}`; inside != want {
		t.Errorf("labels inside Do = %s, want %s", inside, want)
	}
	if got := goroutineLabels(t); got != "" {
		t.Errorf("labels after an outermost Do = %s, want none", got)
	}
	var nilM *Metrics
	ran := false
	nilM.Do(func() { ran = true; inside = goroutineLabels(t) }, "fir", "point", "")
	if !ran || inside != "" {
		t.Fatalf("nil Metrics Do: ran %v under labels %q, want a run without labels", ran, inside)
	}
}

// TestNestedDoKeepsParentLabels: a stage nested in another runs under its
// own labels and, on return or panic, leaves the outer stage's labels in
// place.
func TestNestedDoKeepsParentLabels(t *testing.T) {
	m := New()
	m.SetBase("shard", "1/2")
	var inner, after, afterPanic string
	m.Do(func() {
		m.Do(func() { inner = goroutineLabels(t) }, "mat", "alloc", "point")
		after = goroutineLabels(t)
		func() {
			defer func() { _ = recover() }()
			m.Do(func() { panic("allocator") }, "mat", "alloc", "point")
		}()
		afterPanic = goroutineLabels(t)
	}, "mat", "point", "")
	if want := `{"kernel":"mat", "shard":"1/2", "stage":"alloc"}`; inner != want {
		t.Errorf("nested stage labels = %s, want %s", inner, want)
	}
	want := `{"kernel":"mat", "shard":"1/2", "stage":"point"}`
	if after != want {
		t.Errorf("labels after the nested stage = %q, want the outer stage's %s", after, want)
	}
	if afterPanic != want {
		t.Errorf("labels after a panicking nested stage = %q, want the outer stage's %s", afterPanic, want)
	}
	if got := goroutineLabels(t); got != "" {
		t.Errorf("labels after the outer stage = %s, want none", got)
	}
}

// TestDoReusesLabelSets: once a stage's label sets exist, Do allocates
// nothing, and after SetBase Do labels under the new base, not with the
// sets built under the old one.
func TestDoReusesLabelSets(t *testing.T) {
	m := New()
	m.SetBase("shard", "0/1")
	f := func() {}
	m.Do(f, "fir", "alloc", "point")
	if allocs := testing.AllocsPerRun(100, func() { m.Do(f, "fir", "alloc", "point") }); allocs != 0 {
		t.Errorf("Do with built label sets allocates %.1f/op, want 0", allocs)
	}
	m.SetBase("points", "3")
	var got string
	m.Do(func() { got = goroutineLabels(t) }, "fir", "alloc", "")
	if want := `{"kernel":"fir", "points":"3", "stage":"alloc"}`; got != want {
		t.Errorf("labels after SetBase = %s, want %s", got, want)
	}
}

// TestRegistriesShareLabelSets: registries with equal base pairs share
// their label sets — a fresh registry's first Do over sets another built
// allocates nothing beyond the registry (serve builds one per request) —
// while each still labels with its own base pairs, and counters stay per
// registry.
func TestRegistriesShareLabelSets(t *testing.T) {
	f := func() {}
	New().Do(f, "bic", "alloc", "point") // built under no base pairs
	if allocs := testing.AllocsPerRun(100, func() { New().Do(f, "bic", "alloc", "point") }); allocs > 1 {
		t.Errorf("a fresh registry's Do over shared label sets allocates %.1f/op, want only the registry", allocs)
	}
	for _, base := range [][]string{{"shard", "0/2"}, {"shard", "1/2"}, {"shard", "1", "/2", ""}, nil} {
		for range 2 {
			m := New()
			m.SetBase(base...)
			m.Stage("point").Inc()
			var got string
			m.Do(func() { got = goroutineLabels(t) }, "bic", "alloc", "")
			want := `{"kernel":"bic", "stage":"alloc"}`
			switch len(base) {
			case 2:
				want = fmt.Sprintf(`{"kernel":"bic", "shard":%q, "stage":"alloc"}`, base[1])
			case 4:
				want = `{"/2":"", "kernel":"bic", "shard":"1", "stage":"alloc"}`
			}
			if got != want {
				t.Errorf("base %q: labels %s, want %s", base, got, want)
			}
			if n := m.Snapshot().Stages["point"].Count; n != 1 {
				t.Errorf("base %q: a fresh registry counts %d points, want its own 1", base, n)
			}
		}
	}
}
