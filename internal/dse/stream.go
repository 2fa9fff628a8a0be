package dse

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/simcache"
)

// StreamReporter consumes one exploration's results in canonical point
// order as they are produced, instead of receiving the whole ResultSet at
// the end: Begin once, then Point once per result in strictly increasing
// global point index order, then End. The engine reads units back in
// the order it dispatched them and keeps a bounded window of them in
// flight (see exploreOwned), so a streaming consumer holds at most that
// window in memory however large the space is.
type StreamReporter interface {
	// Begin is called once before any result, with the normalized space
	// and the number of results the stream will carry (the owned subset
	// for sharded runs, the full point count otherwise).
	Begin(sp Space, total int) error
	// Point is called once per result, in increasing Point.Index order.
	Point(r Result) error
	// End is called once after the last result with the stream statistics.
	End(st StreamStats) error
}

// StreamStats summarizes one streamed exploration.
type StreamStats struct {
	// Points is the number of results emitted; Failed how many of them
	// carried a per-point error.
	Points int
	Failed int
	// UniqueSims is the number of distinct cycle simulations run, as on
	// ResultSet.
	UniqueSims int
	// Cache holds the per-stage cache counters of the run — analyses,
	// class schedules and whole-plan simulations. Its disk and remote
	// counters read 0: a sweep reads no file and no network store.
	Cache simcache.Snapshot
	// MaxWindow is the peak number of points dispatched but not yet
	// emitted — at most the window's slots times the largest owned unit
	// (Engine.window), and the memory high-water mark of the streaming
	// path. It depends only on the owned points and the worker count.
	MaxWindow int
	// Obs is the per-stage metrics snapshot of the run, taken just before
	// End is delivered (so End's own encode time is excluded — the CLIs
	// re-snapshot for their final artifacts). Zero when Engine.Obs was nil.
	Obs obs.Snapshot
	// FirstErr is the first per-point error in point order, or nil.
	FirstErr error
}

// ExploreStream evaluates every point of the space, feeding results to sr
// in canonical order as workers complete them. Unlike Explore, memory is
// bounded by the window (plus whatever sr retains), not by the number of
// points.
func (e Engine) ExploreStream(sp Space, sr StreamReporter) (StreamStats, error) {
	return e.exploreStream(context.Background(), sp, 0, 1, sr)
}

// ExploreShardStream is ExploreStream restricted to one shard of an
// n-way partition (0/1 is the whole space) and run under a context: only
// the points of the shard's whole units are evaluated — point g when
// ⌊g/w⌋ mod shardCount = shardIndex, w = |Devices|·|Scheds| (ShardPoint)
// — each still carrying its global Index. When ctx is cancelled,
// dispatch halts immediately (workers finish at most their in-flight
// point, no goroutine lingers past the return), sr receives no further
// Point, and the stream ends without End — a consumer of the portable
// encoding sees a truncated, salvageable file rather than a complete one.
// Returns ctx.Err().
func (e Engine) ExploreShardStream(ctx context.Context, sp Space, shardIndex, shardCount int, sr StreamReporter) (StreamStats, error) {
	return e.exploreStream(ctx, sp, shardIndex, shardCount, sr)
}

// ExploreSubsetStream evaluates exactly the given global point indices —
// the residual point-sets a fleet driver re-partitions after salvaging a
// failed shard — streaming them in increasing index order, each carrying
// its global Index, under the ExploreShardStream cancellation contract.
// points must pass CheckPoints; the canonical global numbering (and so
// output byte-identity after reassembly) is unaffected by how the subset
// was chosen.
func (e Engine) ExploreSubsetStream(ctx context.Context, sp Space, points []int, sr StreamReporter) (StreamStats, error) {
	return e.exploreOwned(ctx, sp, points, sr)
}

// CheckPoints validates an explicit owned point list over a space of
// total points: every index in [0,total), strictly increasing. The engine,
// serve's points= parameter and task-file headers all apply this one rule.
func CheckPoints(points []int, total int) error {
	for i, g := range points {
		if g < 0 || g >= total {
			return fmt.Errorf("point index %d out of range [0,%d)", g, total)
		}
		if i > 0 && g <= points[i-1] {
			return fmt.Errorf("point indices must be strictly increasing (%d after %d)", g, points[i-1])
		}
	}
	return nil
}

// exploreStream selects the owned units of an n-way partition and runs
// the core over them.
func (e Engine) exploreStream(ctx context.Context, sp Space, shardIndex, shardCount int, sr StreamReporter) (StreamStats, error) {
	if shardCount < 1 || shardIndex < 0 || shardIndex >= shardCount {
		return StreamStats{}, fmt.Errorf("dse: invalid shard %d/%d (want count ≥ 1 and 0 ≤ index < count)", shardIndex, shardCount)
	}
	if sp.PortfolioAll && shardCount > 1 {
		// The shard row encoding carries one design per point; the member
		// diagnostic is a local rendering concern, not a portable one.
		return StreamStats{}, fmt.Errorf("dse: the portfolio-all diagnostic is not supported with sharding")
	}
	nsp, err := sp.normalized()
	if err != nil {
		return StreamStats{}, err
	}
	owned := shardPoints(shardIndex, shardCount, nsp.Size(), len(nsp.Devices)*len(nsp.Scheds))
	return e.exploreOwned(ctx, sp, owned, sr)
}

// exploreOwned is the engine core every entry point funnels into: it
// normalizes the space, validates the owned index list, analyzes the
// kernels the owned points touch, and runs the worker pool. The pool
// takes jobs, not points: a job is one unit — the owned run of one
// (kernel, allocator, budget) block (see nextUnit) — and the channel its
// results come back on, buffered to the unit. One worker schedules the
// unit once per sched variant and realizes each owned point's device on
// that schedule, sending the results in point order, so a worker never
// waits to deliver. The calling goroutine dispatches jobs in unit order
// and reads their channels in the same order: dispatch order is emission
// order, and no result waits out of order. It keeps at most
// Engine.window jobs dispatched but not emitted, dispatching the next
// unit once the head one is emitted, so a slow head-of-line unit
// throttles the pool and at most slots × the largest unit results exist
// at once. Cancelling ctx halts dispatch (the same mechanism as a
// reporter error or a worker panic), stops delivery — no Point after the
// cancellation is observed — and returns ctx.Err() without delivering
// End. Every return, a reporter panic included, first stops and joins
// the pool.
func (e Engine) exploreOwned(ctx context.Context, sp Space, owned []int, sr StreamReporter) (StreamStats, error) {
	sp, err := sp.normalized()
	if err != nil {
		return StreamStats{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	pts := sp.Points()
	if err := CheckPoints(owned, len(pts)); err != nil {
		return StreamStats{}, fmt.Errorf("dse: owned %w", err)
	}
	// Only analyze kernels the owned points touch: with more shards than
	// points per kernel block, some kernels have no owned points at all.
	ownedKernels := map[string]bool{}
	for _, i := range owned {
		ownedKernels[pts[i].Kernel.Name] = true
	}
	// The byte store is built (or adopted) before the front-end runs, and
	// the baseline snapshot taken first, so this run's analysis-cache
	// lookups land in the per-run delta alongside its simulation lookups.
	store := e.SimCache
	if store == nil {
		// Engine-owned store: built fresh for this exploration, so the
		// engine also wires its observability. A provided SimCache is
		// externally owned and arrives already wired (re-attaching obs
		// here would race with concurrent explorations sharing it).
		if store, err = e.simStore(); err != nil {
			return StreamStats{}, err
		}
		store.SetObs(e.Obs)
	}
	// A shared store arrives with history; StreamStats reports this
	// exploration's own lookups, so shard trailers and request metrics
	// stay per-run whatever the store's age.
	cacheBase := store.Snapshot()
	analyses, err := e.analyzeKernels(sp, ownedKernels, store)
	if err != nil {
		return StreamStats{}, err
	}
	if err := sr.Begin(sp, len(owned)); err != nil {
		return StreamStats{}, err
	}

	lats := newVariantLats(sp.Scheds)
	cache := newSimCache(store, e.Obs, lats)
	sc := scheduler{sim: cache.simulate, ac: e.Analyses, store: store, lats: lats}
	// The "explore" stage is the engine's own wall clock, stopped before the
	// snapshot so it lands inside it; "window" observes the points
	// dispatched but not yet emitted (unit: points, not nanoseconds) at
	// every emission, so its histogram is the window-pressure profile.
	exploreTm := e.Obs.Stage("explore").Start()
	winStats := e.Obs.Stage("window")

	block := len(sp.Devices) * len(sp.Scheds)
	unit := 0
	for lo := 0; lo < len(owned); {
		hi := nextUnit(owned, lo, block)
		unit = max(unit, hi-lo)
		lo = hi
	}
	window := e.window(unit)
	// The emitter keeps at most window jobs dispatched but not emitted, so
	// a queue of that many never makes a dispatch wait.
	work := make(chan job, window)
	stop := make(chan struct{})
	// A worker panic becomes an error returned after the pool is joined
	// (first one wins) and halts dispatch so the pool unwinds cleanly;
	// stopOnce arbitrates with the other halts, which close the same stop
	// channel.
	var panicMu sync.Mutex
	var panicErr error
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	onPanic := func(err error) {
		panicMu.Lock()
		if panicErr == nil {
			panicErr = err
		}
		panicMu.Unlock()
		halt()
	}
	var wg sync.WaitGroup
	ev := evaluator{sc: sc, members: sp.PortfolioAll, m: e.Obs, tr: e.Trace, pointStage: e.Obs.Stage("point")}
	for w := 0; w < e.workers(); w++ {
		wg.Add(1)
		goRecover(&wg, onPanic, func() {
			// One slot per sched variant; a unit's points cycle through
			// them (the sched axis is innermost), and clearing them after
			// the unit keeps no schedule alive past it.
			slots := make([]scheduled, len(sp.Scheds))
			for j := range work {
				if !ev.unit(analyses[pts[j.unit[0]].Kernel.Name], pts, j.unit, slots, j.out, stop) {
					return
				}
			}
		})
	}
	// Every return, a reporter panic included, stops and joins the pool: a
	// worker checks stop before each point and never blocks on a send, so
	// the join waits out at most one in-flight point per worker.
	shutdown := sync.OnceFunc(func() {
		halt()
		close(work)
		wg.Wait()
	})
	defer shutdown()
	// A cancelled context halts dispatch through the same stop channel a
	// reporter error uses, so the workers exit promptly instead of
	// lingering until the next row emission notices. halt only closes stop
	// once, so the runtime's AfterFunc goroutine cannot panic.
	if ctx.Done() != nil {
		defer context.AfterFunc(ctx, halt)()
	}

	var st StreamStats
	var reportErr error
	// jobs is a ring of the dispatched-but-unemitted jobs in dispatch
	// order, the head at jobs[emitted%window]; pending counts their points.
	jobs := make([]job, window)
	dispatched, emitted, pending := 0, 0, 0
	lo := 0 // position in owned of the next unit to dispatch
emit:
	for lo < len(owned) || emitted < dispatched {
		for ; lo < len(owned) && dispatched-emitted < window; dispatched++ {
			hi := nextUnit(owned, lo, block)
			j := job{unit: owned[lo:hi], out: make(chan Result, hi-lo)}
			jobs[dispatched%window] = j
			work <- j
			pending += hi - lo
			lo = hi
		}
		st.MaxWindow = max(st.MaxWindow, pending)
		head := jobs[emitted%window]
		emitted++
		for range head.unit {
			var r Result
			select {
			case r = <-head.out:
			case <-stop:
				break emit
			}
			winStats.Observe(int64(pending))
			pending--
			st.Points++
			if r.Err != nil {
				st.Failed++
				if st.FirstErr == nil {
					st.FirstErr = fmt.Errorf("%s: %w", r.Point.ID(), r.Err)
				}
			}
			// A cancelled context ends delivery like a reporter error.
			if reportErr = ctx.Err(); reportErr == nil {
				reportErr = sr.Point(r)
			}
			if reportErr != nil {
				break emit
			}
		}
	}
	shutdown()
	if reportErr != nil {
		return st, reportErr
	}
	// The pool is joined, and goRecover publishes panics before wg.Done,
	// so this read sees any worker panic.
	panicMu.Lock()
	perr := panicErr
	panicMu.Unlock()
	if perr != nil {
		return st, perr
	}
	// A cancelled run never delivers End: the stream stays visibly
	// incomplete (no trailer), which is what downstream salvage keys on.
	if err := ctx.Err(); err != nil {
		return st, err
	}
	st.UniqueSims = cache.size()
	st.Cache = cache.snapshot().Sub(cacheBase)
	exploreTm.Stop()
	st.Obs = e.Obs.Snapshot()
	if err := sr.End(st); err != nil {
		return st, err
	}
	return st, nil
}

// job is one dispatched unit and the channel its results come back on,
// buffered to the unit so its worker never waits to deliver.
type job struct {
	unit []int
	out  chan Result
}

// nextUnit returns the end of the unit that starts at owned[lo]: the
// owned points of one (kernel, allocator, budget) block, which holds
// block = |Devices|·|Scheds| consecutive global indices (devices outer,
// sched variants inner). A unit is a contiguous subslice of owned, so
// units dispatched in order keep results in emission order.
func nextUnit(owned []int, lo, block int) int {
	b := owned[lo] / block
	hi := lo + 1
	for hi < len(owned) && owned[hi]/block == b {
		hi++
	}
	return hi
}

// collector buffers a stream back into result order — the adapter behind
// the buffered Explore/ExploreShard entry points.
type collector struct {
	space Space
	rows  []Result
}

func (c *collector) Begin(sp Space, total int) error {
	c.space = sp
	c.rows = make([]Result, 0, total)
	return nil
}

func (c *collector) Point(r Result) error {
	c.rows = append(c.rows, r)
	return nil
}

func (c *collector) End(StreamStats) error { return nil }
