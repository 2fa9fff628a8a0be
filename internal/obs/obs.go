// Package obs is the observability substrate of the DSE pipeline: named
// per-stage metrics (monotonic counters plus log-bucketed time/size
// histograms), optional per-point trace spans (trace.go), and pprof label
// helpers, threaded through the engine, the estimator, the simulator and
// the caches.
//
// The package is built around two constraints:
//
//   - Allocation-free when disabled. Every API is nil-safe: a nil *Metrics,
//     *StageStats, *Tracer or zero Span/Timer no-ops without calling
//     time.Now and without allocating, so instrumentation can sit inside
//     the simulator and stream-window hot loops at zero cost until a
//     caller opts in (alloc_test.go pins this).
//
//   - Mergeable. A Snapshot is a pure value: counters and histogram buckets
//     sum stage-wise and bucket-wise (Snapshot.Add), so shard trailers can
//     carry one snapshot per worker process and a merged run reports
//     fleet-wide stage timings. Instrumenting run A, run B and summing
//     equals instrumenting the concatenated run (obs_test.go pins this).
//
// Histograms are log₂-bucketed: bucket 0 counts non-positive values and
// bucket i ≥ 1 counts values v with 2^(i-1) ≤ v < 2^i. Timed stages record
// nanoseconds; by convention a stage that records some other unit (e.g.
// the stream window's occupancy in results) says so in its name's
// documentation, never in the encoding.
//
// Static invariants enforced by reprovet (DESIGN.md §10):
//
//repro:nilsafe
//repro:deterministic-output
package obs

import (
	"context"
	"fmt"
	"math/bits"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// numBuckets bounds the log₂ histogram: the last bucket absorbs every
// value ≥ 2^(numBuckets-2) (≈ 19.5 hours in nanoseconds).
const numBuckets = 47

// bucketOf returns the histogram bucket of one observation.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v)) // 2^(b-1) ≤ v < 2^b
	if b >= numBuckets {
		b = numBuckets - 1
	}
	return b
}

// BucketHi returns the exclusive upper bound of histogram bucket i — the
// value below which every observation in the bucket falls. The last bucket
// is unbounded and reports the largest int64.
func BucketHi(i int) int64 {
	if i <= 0 {
		return 1
	}
	if i >= numBuckets-1 {
		return 1<<63 - 1
	}
	return 1 << i
}

// StageStats is the live counter set of one named stage: observation
// count, value sum and max, and the log₂ histogram. All fields are
// atomics, so one stage can be fed from any number of goroutines; all
// methods are nil-safe no-ops, so disabled instrumentation costs a
// predicted branch and nothing else.
type StageStats struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [numBuckets]atomic.Int64
}

// Inc counts one event without a histogram observation (plain counter
// stages: cache tiers, drops).
//
//repro:hotpath
func (s *StageStats) Inc() { s.Add(1) }

// Add counts n events without a histogram observation.
//
//repro:hotpath
func (s *StageStats) Add(n int64) {
	if s == nil {
		return
	}
	s.count.Add(n)
}

// Observe records one value: count, sum, max and the histogram bucket.
//
//repro:hotpath
func (s *StageStats) Observe(v int64) {
	if s == nil {
		return
	}
	s.count.Add(1)
	s.sum.Add(v)
	for {
		m := s.max.Load()
		if v <= m || s.max.CompareAndSwap(m, v) {
			break
		}
	}
	s.buckets[bucketOf(v)].Add(1)
}

// Timer measures one stage execution. The zero Timer is disabled and free.
type Timer struct {
	s  *StageStats
	t0 time.Time
}

// Start begins timing one execution of the stage; a nil stage returns the
// disabled Timer without reading the clock.
//
//repro:hotpath
func (s *StageStats) Start() Timer {
	if s == nil {
		return Timer{}
	}
	return Timer{s: s, t0: time.Now()}
}

// Stop records the elapsed nanoseconds and returns them (0 when disabled).
//
//repro:hotpath
func (t Timer) Stop() int64 {
	if t.s == nil {
		return 0
	}
	d := int64(time.Since(t.t0))
	t.s.Observe(d)
	return d
}

// Metrics is one run's stage registry. The zero value is not usable; use
// New. A nil *Metrics is the disabled instance: Stage returns nil handles
// and Do runs the function unlabeled.
type Metrics struct {
	stages sync.Map                  // string → *StageStats
	base   atomic.Pointer[labelBase] // pprof label pairs prepended by Do; nil for none
}

// labelBase is a Metrics' base label pairs and the key they give its label
// sets in labelSets.
type labelBase struct {
	pairs []string
	key   string // the pairs, each quoted: equal keys, equal pairs
}

// labelKey names one pprof label set: a stage of a kernel under some base
// pairs.
type labelKey struct{ base, kernel, stage string }

// labelSets holds the context carrying every label set a Metrics has
// built, keyed by (base, kernel, stage). Counters are per registry, but a
// label set depends only on its key, so registries with equal base pairs
// share them: serve builds a registry per request, and a warm request
// builds no label set. The table keeps at most maxLabelSets sets; past
// that, Do builds the sets the table lacks on every call.
var (
	labelSets     sync.Map // labelKey → context.Context
	labelSetCount atomic.Int64
)

// maxLabelSets bounds labelSets. The stock sweep labels 18 (kernel,
// stage) pairs per base; a process that labels more kernels than a
// registry names (generated nests) must not grow the table without end.
const maxLabelSets = 1 << 12

// New returns an enabled, empty Metrics.
func New() *Metrics { return &Metrics{} }

// Stage returns the named stage's live counters, registering the stage on
// first use. Nil-safe: a nil Metrics returns a nil *StageStats whose
// methods no-op, so call sites hold one handle and never branch.
func (m *Metrics) Stage(name string) *StageStats {
	if m == nil {
		return nil
	}
	if s, ok := m.stages.Load(name); ok {
		return s.(*StageStats)
	}
	s, _ := m.stages.LoadOrStore(name, &StageStats{})
	return s.(*StageStats)
}

// SetBase sets pprof label pairs prepended to every Do call — e.g.
// ("shard", "0/3") so a worker process's profile samples carry their shard
// coordinate. Call it before the first Do: Do calls running while the
// base changes may label under either base.
func (m *Metrics) SetBase(pairs ...string) {
	if m == nil {
		return
	}
	var key []byte
	for _, p := range pairs {
		key = strconv.AppendQuote(key, p)
	}
	m.base.Store(&labelBase{pairs: pairs, key: string(key)})
}

// Do runs f on the calling goroutine under the pprof labels of one stage
// — the base pairs, then ("kernel", kernel, "stage", stage) — so CPU
// profiles decompose by shard, kernel and stage. When f returns, or
// panics, Do hands the goroutine back to the labels of the stage it was
// called in: (kernel, parent), or no labels when parent is "". A stage
// nested in another therefore leaves its parent's labels in place.
// Each label set is built once per process for all registries with the
// same base pairs (labelSets) and switched with pprof.SetGoroutineLabels,
// so a Do whose two sets exist allocates nothing, on a fresh registry
// too. A nil Metrics calls f directly.
func (m *Metrics) Do(f func(), kernel, stage, parent string) {
	if m == nil {
		f()
		return
	}
	defer pprof.SetGoroutineLabels(m.labelSet(kernel, parent))
	pprof.SetGoroutineLabels(m.labelSet(kernel, stage))
	f()
}

// labelSet returns the context carrying the label set of (kernel, stage)
// under m's base pairs, building it on the process's first use; stage ""
// is the empty set.
func (m *Metrics) labelSet(kernel, stage string) context.Context {
	if stage == "" {
		return context.Background()
	}
	var base labelBase
	if b := m.base.Load(); b != nil {
		base = *b
	}
	key := labelKey{base.key, kernel, stage}
	if ctx, ok := labelSets.Load(key); ok {
		return ctx.(context.Context)
	}
	pairs := append(append(make([]string, 0, len(base.pairs)+4), base.pairs...), "kernel", kernel, "stage", stage)
	ctx := pprof.WithLabels(context.Background(), pprof.Labels(pairs...))
	if labelSetCount.Load() >= maxLabelSets {
		return ctx
	}
	if built, loaded := labelSets.LoadOrStore(key, ctx); loaded {
		return built.(context.Context)
	}
	labelSetCount.Add(1)
	return ctx
}

// Snapshot returns the current value of every registered stage. The result
// is a pure value, detached from the live counters. Nil-safe: a nil
// Metrics returns the zero Snapshot.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	snap := Snapshot{Stages: map[string]StageSnapshot{}}
	m.stages.Range(func(k, v any) bool {
		s := v.(*StageStats)
		ss := StageSnapshot{
			Count: s.count.Load(),
			Sum:   s.sum.Load(),
			Max:   s.max.Load(),
		}
		hi := 0
		var buckets [numBuckets]int64
		for i := range buckets {
			if buckets[i] = s.buckets[i].Load(); buckets[i] != 0 {
				hi = i + 1
			}
		}
		if hi > 0 {
			ss.Buckets = append([]int64(nil), buckets[:hi]...)
		}
		snap.Stages[k.(string)] = ss
		return true
	})
	if len(snap.Stages) == 0 {
		snap.Stages = nil
	}
	return snap
}

// StageSnapshot is the JSON-portable value of one stage: observation
// count, value sum/max, and the log₂ histogram with trailing zero buckets
// trimmed (absent for counter-only stages).
type StageSnapshot struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum,omitempty"`
	Max     int64   `json:"max,omitempty"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// add returns the field-wise sum of two stage snapshots (buckets summed
// index-wise, max taken as the larger).
func (s StageSnapshot) add(o StageSnapshot) StageSnapshot {
	r := StageSnapshot{Count: s.Count + o.Count, Sum: s.Sum + o.Sum, Max: max(s.Max, o.Max)}
	n := max(len(s.Buckets), len(o.Buckets))
	if n > 0 {
		r.Buckets = make([]int64, n)
		copy(r.Buckets, s.Buckets)
		for i, v := range o.Buckets {
			r.Buckets[i] += v
		}
	}
	return r
}

// Quantile returns an upper bound on the q-quantile (0 ≤ q ≤ 1) of the
// stage's observations: the exclusive upper bound of the histogram bucket
// the quantile falls in. 0 when the stage has no histogram.
func (s StageSnapshot) Quantile(q float64) int64 {
	total := int64(0)
	for _, b := range s.Buckets {
		total += b
	}
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	seen := int64(0)
	for i, b := range s.Buckets {
		seen += b
		if seen > rank {
			return BucketHi(i)
		}
	}
	return BucketHi(len(s.Buckets) - 1)
}

// Snapshot is a point-in-time copy of every stage — the JSON-portable form
// shard trailers carry, `dse -metrics` writes and merges sum.
type Snapshot struct {
	Stages map[string]StageSnapshot `json:"stages,omitempty"`
}

// Zero reports whether no stage recorded anything (e.g. obs was disabled).
func (s Snapshot) Zero() bool { return len(s.Stages) == 0 }

// Names returns the stage names in sorted order.
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s.Stages))
	for n := range s.Stages {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Add returns the stage-wise sum — how shard merging combines the
// snapshots of independent worker processes. Stage names union; counters
// and histogram buckets sum; max takes the larger. Add is associative and
// commutative, and summing per-run snapshots equals instrumenting the
// concatenated run.
func (s Snapshot) Add(o Snapshot) Snapshot {
	if o.Zero() {
		return s
	}
	if s.Zero() {
		return o
	}
	r := Snapshot{Stages: make(map[string]StageSnapshot, len(s.Stages))}
	for n, ss := range s.Stages {
		r.Stages[n] = ss
	}
	for n, os := range o.Stages {
		r.Stages[n] = r.Stages[n].add(os)
	}
	return r
}

// Summary renders the top k stages by summed value as one comma-joined
// clause for single-line stderr stats — "stage n×avg" per stage, values
// rendered as durations (the convention for timed stages; counter-only
// stages render as a bare count).
func (s Snapshot) Summary(k int) string {
	names := s.Names()
	sort.SliceStable(names, func(i, j int) bool {
		return s.Stages[names[i]].Sum > s.Stages[names[j]].Sum
	})
	if k > 0 && len(names) > k {
		names = names[:k]
	}
	parts := make([]string, 0, len(names))
	for _, n := range names {
		ss := s.Stages[n]
		if ss.Sum == 0 {
			parts = append(parts, fmt.Sprintf("%s %d", n, ss.Count))
			continue
		}
		avg := time.Duration(0)
		if ss.Count > 0 {
			avg = time.Duration(ss.Sum / ss.Count)
		}
		parts = append(parts, fmt.Sprintf("%s %d×%v", n, ss.Count, round(avg)))
	}
	return strings.Join(parts, ", ")
}

// round trims a duration to three significant-ish digits for summaries.
func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond)
	case d >= time.Microsecond:
		return d.Round(10 * time.Nanosecond)
	}
	return d
}

// Span measures one stage execution for both the metrics histograms and
// the per-point trace. The zero Span is disabled and free; Begin with both
// sinks nil returns it without reading the clock.
type Span struct {
	s      *StageStats
	tr     *Tracer
	point  int
	kernel string
	stage  string
	t0     time.Time
}

// Begin opens a span attributed to one design point (point < 0 for
// per-kernel or global work). Either sink may be nil.
func Begin(m *Metrics, tr *Tracer, point int, kernel, stage string) Span {
	return m.Stage(stage).Begin(tr, point, kernel, stage)
}

// Begin opens a span on this stage's counters, which a caller opening
// one per design point resolves once (Metrics.Stage) instead of per span;
// stage names the stage in the trace. Either sink may be nil.
func (s *StageStats) Begin(tr *Tracer, point int, kernel, stage string) Span {
	if s == nil && tr == nil {
		return Span{}
	}
	return Span{s: s, tr: tr, point: point, kernel: kernel, stage: stage, t0: time.Now()}
}

// End closes the span: the duration lands in the stage histogram and, when
// tracing, one trace event carrying the cache tier ("" when irrelevant).
//
//repro:hotpath
func (sp Span) End(tier string) {
	if sp.s == nil && sp.tr == nil {
		return
	}
	d := time.Since(sp.t0)
	sp.s.Observe(int64(d))
	sp.tr.span(sp.point, sp.kernel, sp.stage, tier, sp.t0, d)
}
