package dse

import (
	"repro/internal/dfg"
	"repro/internal/hls"
	"repro/internal/ir"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/scalarrepl"
	"repro/internal/sched"
	"repro/internal/simcache"
)

// simCache memoizes cycle simulations across the schedules of one
// exploration. The device axis never reaches it: a unit's devices share
// one schedule, computed once per sched variant. Distinct schedules still
// frequently converge to identical storage plans — saturated budgets
// collapse onto the kernel's full allocation and different allocators
// agree on small kernels — so the sweep pays for far fewer simulations
// than it has schedules. The key pins everything the simulation reads:
// the kernel, the plan's β/coverage fingerprint, the latency model and the
// RAM port count.
//
// The cache is a single-flight memo (internal/memo): the first goroutine to
// claim a key runs the simulation, concurrent claimants block until it
// settles and share the resulting *sched.Result read-only, and a
// simulation panic becomes the key's memoized error.
type simCache struct {
	memo memo.Memo[simKey, *sched.Result]
	// sim is the simulator whose class-schedule store (sim.Cache) is
	// shared by every plan the exploration simulates — across budgets,
	// allocators (portfolio mode included) and kernels. The plan-level memo
	// above removes exact-duplicate plans outright; the store makes the
	// residual unique plans cheap, since plans differing in a few β values
	// share most of their iteration classes.
	sim *sched.Simulator
	// lats holds the exploration's latency fingerprints by sched variant:
	// a lookup reads the one of the point it runs for (SimCtx.Point)
	// instead of rendering it.
	lats variantLats
}

type simKey struct {
	kernel string
	plan   string
	lat    string
	ports  int
}

// simPanic names a simulation in a recovered panic's error.
const simPanic = "simulation"

// newSimCache wraps a simulation store with the per-exploration plan-level
// cache over the exploration's sched variants. It does not touch the
// store's obs wiring — the store's owner does that once (the engine for
// caches it builds itself, the serving process for a shared
// Engine.SimCache).
func newSimCache(store *simcache.Cache, m *obs.Metrics, lats variantLats) *simCache {
	return &simCache{
		memo: memo.Memo[simKey, *sched.Result]{What: simPanic},
		sim:  &sched.Simulator{Cache: store, Obs: m},
		lats: lats,
	}
}

// simulate implements hls.SimFunc for the exploration's points: cfg must
// be ctx.Point's sched variant, whose latency fingerprint the key takes
// from lats. The "sim" span covers the whole lookup — the cache hit path
// included, so the trace shows what each point paid, not what the
// simulator cost — and carries the plan-cache outcome as its tier.
func (c *simCache) simulate(ctx hls.SimCtx, nest *ir.Nest, g *dfg.Graph, plan *scalarrepl.Plan, cfg sched.Config) (*sched.Result, error) {
	key := simKey{kernel: ctx.Kernel, plan: plan.Fingerprint(), lat: c.lats.of(ctx.Point), ports: cfg.PortsPerRAM}
	sp := obs.Begin(ctx.Obs, ctx.Trace, ctx.Point, ctx.Kernel, "sim")
	res, o, err := c.memo.Get(key, func() (*sched.Result, error) {
		return c.sim.SimulateGraph(nest, g, plan, cfg)
	})
	// Hit/miss counts are deterministic for a space: misses count distinct
	// keys, never worker scheduling.
	tier := "plan-hit"
	if o == memo.Claimed {
		tier = "plan-miss"
		c.sim.Cache.PlanMiss()
	} else {
		c.sim.Cache.PlanHit()
	}
	sp.End(tier)
	return res, err
}

// snapshot returns the combined per-stage cache counters.
func (c *simCache) snapshot() simcache.Snapshot { return c.sim.Cache.Snapshot() }

// size returns the number of distinct simulations run so far.
func (c *simCache) size() int { return c.memo.Len() }
