// Package dse is the design-space exploration engine: it evaluates the
// cross-product of kernels × allocators × register budgets × devices ×
// scheduler configurations concurrently on a worker pool and collects the
// estimated designs into a deterministically-ordered result set with
// Pareto-frontier extraction and pluggable reporters.
//
// The engine memoizes the per-kernel front-end: reuse analysis and the
// body data-flow graph (hls.Analysis) are built once per kernel and shared
// — read-only — by every design point of that kernel, instead of being
// rebuilt per point as hls.Estimate does. With B budgets, D devices, A
// allocators and S scheduler variants, the front-end runs once instead of
// A·B·D·S times per kernel.
//
// The back-end is shared across the device axis outright: devices only
// affect the area/clock models, so the pool takes units — the owned
// points of one (kernel, allocator, budget) block — and a worker
// allocates, plans and simulates each sched variant of its unit once
// (hls.Schedule), then applies each point's device to that schedule
// (hls.Realize). A concurrency-safe simulation cache keyed by (kernel,
// plan fingerprint, latency model, RAM ports) then shares one cycle
// simulation among every schedule whose allocator converged to the same
// β vector — saturated budgets and agreeing allocators. An engine given a
// shared AnalysisCache also keeps each schedule there, so a unit that an
// earlier exploration scheduled is only realized.
//
// Results are stored by point index, so the output is byte-identical
// whatever the worker count or completion order; per-point estimation
// failures (infeasible budget, device capacity) are recorded in the result
// row rather than aborting the sweep.
//
// Static invariants enforced by reprovet (DESIGN.md §10):
//
//repro:deterministic-output
//repro:recover-workers
package dse

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	rtrace "runtime/trace"
	"sync"
	"sync/atomic"

	"repro/internal/hls"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/simcache"
)

// The engine also streams: ExploreStream/ExploreShardStream (stream.go)
// feed a StreamReporter in point order as units complete, holding a
// bounded window of dispatched units instead of the whole ResultSet, and
// the space partitions across processes by whole (kernel, allocator,
// budget) units (partition.go, internal/shard) — ExploreShard evaluates
// one shard's units while preserving global point numbering.

// Result is the outcome of one design point: the estimated design, or the
// estimation error (infeasible budget, device capacity, ...).
type Result struct {
	Point  Point
	Design *hls.Design // nil when Err != nil
	Err    error
	// Members holds every portfolio member's design (allocator list order,
	// winner included) when the space ran with PortfolioAll; nil otherwise.
	Members []*hls.Design
}

// Ok reports whether the point produced a design.
func (r Result) Ok() bool { return r.Err == nil && r.Design != nil }

// ResultSet holds every result of one exploration in canonical point
// order: Results[i].Point.Index == i for a full exploration. A sharded
// set (ExploreShard, shard.Merge inputs) holds only the shard's owned
// points — still in increasing order, but each carrying its global
// Index — so index into Results positionally only on full sets.
type ResultSet struct {
	Space   Space // normalized: every axis populated
	Results []Result
	// UniqueSims is the number of distinct cycle simulations the
	// exploration ran. The gap to len(Results) is the work the
	// cross-point cache deduplicated; the count depends only on the
	// space, never on worker scheduling.
	UniqueSims int
	// Cache holds the per-stage simulation-cache counters (analyses,
	// class schedules, whole plans); for a merged sharded run it is the
	// sum over the shard processes.
	Cache simcache.Snapshot
	// Obs holds the per-stage timing/counter snapshot of the run (zero when
	// Engine.Obs was nil); for a merged sharded run it is the stage-wise sum
	// over the shard processes.
	Obs obs.Snapshot
}

// Ok returns the successful results, in point order.
func (rs *ResultSet) Ok() []Result {
	var ok []Result
	for _, r := range rs.Results {
		if r.Ok() {
			ok = append(ok, r)
		}
	}
	return ok
}

// Failed returns the failed results, in point order.
func (rs *ResultSet) Failed() []Result {
	var failed []Result
	for _, r := range rs.Results {
		if !r.Ok() {
			failed = append(failed, r)
		}
	}
	return failed
}

// FirstErr returns the first per-point error in point order, or nil.
func (rs *ResultSet) FirstErr() error {
	for _, r := range rs.Results {
		if r.Err != nil {
			return fmt.Errorf("%s: %w", r.Point.ID(), r.Err)
		}
	}
	return nil
}

// Engine evaluates design spaces on a bounded worker pool.
type Engine struct {
	// Workers is the pool size; ≤0 uses GOMAXPROCS.
	Workers int
	// SimCacheDir, when non-empty, builds the exploration's store with
	// simcache.NewDir over the given directory (created if absent). No
	// sweep reads or writes it: class schedules live in memory, since
	// computing one is cheaper than reading it back (DESIGN.md §22), and
	// analyses are never stored. The field remains for the benchmark's
	// shard-disk workload (bench/workloads.go) and goes when that stops
	// setting it.
	SimCacheDir string
	// SimCache, when non-nil, is a pre-built simulation store
	// the exploration uses instead of constructing its own (SimCacheDir is
	// then ignored). This is how a long-running process keeps one warm
	// store across many explorations. The engine treats a provided cache as
	// externally owned: it never calls SetObs on it — wire observability
	// once, at construction, before concurrent use.
	SimCache *simcache.Cache
	// Analyses, when non-nil, is a process-lifetime memo of front-end
	// analyses and unit schedules shared across explorations: a warm
	// request's analyze stage becomes one key and one map lookup, and a
	// unit any exploration scheduled before goes straight to the device
	// models — no allocator, plan or simulation. Nil memoizes nothing: an
	// exploration analyzes each of its kernels and schedules each of its
	// units once anyway, since a space names every coordinate once. Like
	// SimCache, a provided memo is externally owned and safe for
	// concurrent explorations.
	Analyses *AnalysisCache
	// Obs, when non-nil, collects per-stage metrics across the whole
	// pipeline — front-end analysis, allocator runs, planning, simulation
	// and its class scheduling, cache tiers, window occupancy —
	// and labels worker goroutines with pprof (kernel, stage) pairs so CPU
	// profiles decompose by stage. Results are byte-identical with or
	// without it; the final snapshot lands on StreamStats.Obs /
	// ResultSet.Obs. Nil disables all of it at zero cost.
	Obs *obs.Metrics
	// Trace, when non-nil, additionally records one span per stage
	// execution into the bounded per-point trace ring (see obs.Tracer).
	Trace *obs.Tracer
}

func (e Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// window returns how many units a run whose largest owned unit has unit
// points keeps dispatched but not yet emitted. A unit (the owned points
// of one kernel, allocator and budget: up to |Devices|·|Scheds|) holds
// one slot from its dispatch until its last point is emitted. The window
// holds four units per worker, and at least 16 points: ⌈16/unit⌉ slots.
// A run that owns no point (unit 0) gets the per-worker floor.
func (e Engine) window(unit int) int {
	slots := 4 * e.workers()
	if unit > 0 {
		slots = max(slots, (16+unit-1)/unit)
	}
	return slots
}

// Explore evaluates every point of the space and returns the full result
// set. Per-point estimation failures land in the corresponding Result;
// Explore itself errors only when the space is malformed or a kernel's
// front-end analysis fails (which would poison all of its points).
func (e Engine) Explore(sp Space) (*ResultSet, error) {
	return e.ExploreShard(sp, 0, 1)
}

// ExploreShard evaluates one shard of an n-way partition of the space:
// whole units, dealt round-robin — the points g with ⌊g/w⌋ mod shardCount
// = shardIndex, where w = |Devices|·|Scheds| is the unit size
// (ShardPoint). Results holds only the owned points, in increasing global
// index order, with every Point still carrying its global Index — so
// shard result sets reassemble into the exact single-process ResultSet
// (see internal/shard for the portable encoding and the merge). Each
// unit is scheduled by one shard only, and the units interleave, so
// every shard sees every kernel (while shardCount allows) and the
// per-kernel front-end memoization keeps paying off inside each shard.
func (e Engine) ExploreShard(sp Space, shardIndex, shardCount int) (*ResultSet, error) {
	var col collector
	st, err := e.exploreStream(context.Background(), sp, shardIndex, shardCount, &col)
	if err != nil {
		return nil, err
	}
	return &ResultSet{Space: col.space, Results: col.rows, UniqueSims: st.UniqueSims, Cache: st.Cache, Obs: st.Obs}, nil
}

// simStore builds the simulation store one exploration's front-end and
// simulator share across all its kernels and plans: a NewDir store over
// SimCacheDir when it is set (a sweep reads none of its files), a memory
// store otherwise.
func (e Engine) simStore() (*simcache.Cache, error) {
	if e.SimCacheDir != "" {
		return simcache.NewDir(e.SimCacheDir)
	}
	return simcache.New(), nil
}

// scheduled is one sched variant's schedule within a unit: the
// device-independent half of its points, computed at the first owned
// point that needs it and realized on each owned point's device. In
// portfolio mode it holds every member's schedule instead.
type scheduled struct {
	done    bool
	sched   hls.Schedule
	members []hls.Member
	err     error
}

// variantLats holds each sched variant's latency fingerprint, rendered
// once per exploration: the schedule memo and the plan memo both key on
// it.
type variantLats []string

// newVariantLats renders the latency fingerprint of every sched variant.
func newVariantLats(scheds []SchedVariant) variantLats {
	lats := make(variantLats, len(scheds))
	for v, sv := range scheds {
		lats[v] = sv.Config.Lat.Fingerprint()
	}
	return lats
}

// of returns the latency fingerprint of global point index i's sched
// variant. The sched axis is innermost, so the variant is i modulo the
// variant count.
func (l variantLats) of(i int) string { return l[i%len(l)] }

// schedule computes the slot for point p, converting an estimator panic
// into the slot's error, so every point of the unit that shares the
// schedule records the same panic. A portfolio point schedules its
// members in list order, and a member's panic fails the whole point.
func (ev *evaluator) schedule(an *hls.Analysis, p Point, s *scheduled) {
	s.done = true
	defer func() {
		if v := recover(); v != nil {
			*s = scheduled{done: true, err: estimatorPanic(v)}
		}
	}()
	opt := p.Options()
	opt.Obs, opt.Trace, opt.Point = ev.m, ev.tr, p.Index
	pf, ok := p.Allocator.(Portfolio)
	if !ok {
		mb, err := ev.member(an, p.Allocator, opt)
		if err == nil {
			err = mb.Err
		}
		s.sched, s.err = mb.Schedule, err
		return
	}
	s.members = make([]hls.Member, len(pf.Allocators))
	for i, alg := range pf.Allocators {
		var err error
		if s.members[i], err = ev.member(an, alg, opt); err != nil {
			*s = scheduled{done: true, err: err}
			return
		}
	}
}

// estimator names the estimate in a recovered panic's error, memoized
// (AnalysisCache's schedules) or not (estimatorPanic).
const estimator = "estimator"

func estimatorPanic(v any) error { return fmt.Errorf("%s panic: %v", estimator, v) }

// evaluate estimates one design point from its sched variant's slot,
// scheduling it first if no earlier point of the unit did, and converts
// an estimator panic into the point's error. Without the recover, a
// panicking allocator would kill its worker goroutine and halt the whole
// exploration with a worker panic instead of failing one point. A
// portfolio point realizes every member on its device and keeps the best
// design; with members set it also carries every member's design on the
// result (the -portfolio-all diagnostic).
func (ev *evaluator) evaluate(an *hls.Analysis, p Point, slot *scheduled) (res Result) {
	if !slot.done {
		ev.schedule(an, p, slot)
	}
	if slot.err != nil {
		return Result{Point: p, Err: slot.err}
	}
	defer func() {
		if v := recover(); v != nil {
			res = Result{Point: p, Err: estimatorPanic(v)}
		}
	}()
	if _, ok := p.Allocator.(Portfolio); ok {
		d, ms, err := an.RealizePortfolio(slot.members, p.Device)
		if !ev.members {
			ms = nil
		}
		return Result{Point: p, Design: d, Members: ms, Err: err}
	}
	d, err := an.Realize(&slot.sched, p.Device)
	return Result{Point: p, Design: d, Err: err}
}

// evaluator is what a worker evaluates one exploration's units with: the
// exploration's cache and its simulate method, the engine's analysis
// memo (nil: none), which keeps each schedule, the portfolio-all switch,
// and the engine's observability sinks, with the "point" stage resolved
// once per exploration.
type evaluator struct {
	cache      *simCache
	sim        hls.SimFunc
	ac         *AnalysisCache
	members    bool
	m          *obs.Metrics
	tr         *obs.Tracer
	pointStage *obs.StageStats
}

// unit evaluates one unit's points in order, sending each result on
// results, and returns false once stop is closed. It checks stop before
// each point: the unit's results channel holds the whole unit, so a send
// never blocks, and the check is what keeps a halted worker to its
// in-flight point. The worker runs the whole unit under the pprof labels
// (kernel, "point"), switched once per unit, so CPU profiles decompose by
// kernel and stage; it holds no labels after the unit.
func (ev *evaluator) unit(an *hls.Analysis, pts []Point, unit []int, slots []scheduled, results chan<- Result, stop <-chan struct{}) (ok bool) {
	ev.m.Do(func() {
		for _, i := range unit {
			select {
			case <-stop:
				return
			default:
			}
			results <- ev.eval(an, pts[i], &slots[i%len(slots)])
		}
		ok = true
	}, pts[unit[0]].Kernel.Name, "point", "")
	clear(slots)
	return ok
}

// eval is evaluate under the engine's observability: a "point" span
// spanning the whole per-point pipeline and a runtime/trace user region
// (so `go tool trace` shows per-point blocks when -exectrace is on). A
// point that computes its unit's schedule carries the allocator, plan and
// simulation stages in its span; the others carry only the device
// models. Without sinks the span is a no-op and the region a disabled
// one (DESIGN.md §9).
func (ev *evaluator) eval(an *hls.Analysis, p Point, slot *scheduled) Result {
	var r Result
	sp := ev.pointStage.Begin(ev.tr, p.Index, p.Kernel.Name, "point")
	rtrace.WithRegion(context.Background(), "point", func() {
		r = ev.evaluate(an, p, slot)
	})
	sp.End("")
	return r
}

// analyzeKernels builds the front-end of every included kernel on the
// axis, concurrently (one analysis per kernel, however many points share
// it): min(workers, kernels) goroutines take the kernels in axis order,
// and the first error in that order wins. A nil include set means every
// kernel. Lookups go through the engine's AnalysisCache, which may be
// nil, and are counted on the exploration's cache c and its store: the
// cache/analysis/{hit,miss} obs stages record whether the memo answered.
func (e Engine) analyzeKernels(sp Space, include map[string]bool, c *simCache) (map[string]*hls.Analysis, error) {
	var ks []kernels.Kernel
	for _, k := range sp.Kernels {
		if include == nil || include[k.Name] {
			ks = append(ks, k)
		}
	}
	results := make([]*hls.Analysis, len(ks))
	errs := make([]error, len(ks))
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	for range min(e.workers(), len(ks)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := -1
			// LIFO: this recover runs before wg.Done, so wg.Wait sees the
			// errs write. A goroutine that panics takes no further
			// kernel, and every kernel it leaves follows the failed one.
			defer func() {
				if v := recover(); v != nil {
					errs[i] = fmt.Errorf("dse: analyze %s panic: %v\n%s", ks[i].Name, v, debug.Stack())
				}
			}()
			for i = int(next.Add(1)) - 1; i < len(ks); i = int(next.Add(1)) - 1 {
				k := ks[i]
				sp := obs.Begin(e.Obs, e.Trace, -1, k.Name, "analyze")
				e.Obs.Do(func() { results[i], errs[i] = e.Analyses.get(k, c.sim.Cache, &c.analyses) }, k.Name, "analyze", "")
				sp.End("")
			}
		}()
	}
	wg.Wait()
	analyses := make(map[string]*hls.Analysis, len(ks))
	for i, k := range ks {
		if errs[i] != nil {
			return nil, errs[i]
		}
		analyses[k.Name] = results[i]
	}
	return analyses, nil
}
