package dse

import (
	"sync/atomic"

	"repro/internal/hls"
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
// It also counts the exploration's own lookups (snapshot), which a store
// other explorations share cannot tell apart from theirs.
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
	// a lookup reads the one of the point it runs for (Options.Point)
	// instead of rendering it.
	lats variantLats
	// analyses, schedules and plans count the exploration's lookups of the
	// analysis memo, the schedule memo and the plan memo; sim counts its
	// class lookups.
	analyses, schedules, plans hitMiss
}

// hitMiss counts one exploration's lookups of one memo by outcome: a
// claim is a miss, anything else a hit.
type hitMiss struct{ hits, misses atomic.Int64 }

func (c *hitMiss) add(o memo.Outcome) {
	if o == memo.Claimed {
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
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

// simulate implements hls.SimFunc for the exploration's points: opt.Sched
// must be opt.Point's sched variant, whose latency fingerprint the key
// takes from lats. The "sim" span covers the whole lookup — the cache hit
// path included, so the trace shows what each point paid, not what the
// simulator cost — and carries the plan-cache outcome as its tier.
func (c *simCache) simulate(an *hls.Analysis, plan *scalarrepl.Plan, opt hls.Options) (*sched.Result, error) {
	key := simKey{kernel: an.Kernel.Name, plan: plan.Fingerprint(), lat: c.lats.of(opt.Point), ports: opt.Sched.PortsPerRAM}
	sp := obs.Begin(opt.Obs, opt.Trace, opt.Point, an.Kernel.Name, "sim")
	res, o, err := c.memo.Get(key, func() (*sched.Result, error) {
		return c.sim.SimulateGraph(an.Kernel.Nest, an.Graph, plan, opt.Sched)
	})
	// Hit/miss counts are deterministic for a space: misses count distinct
	// keys, never worker scheduling.
	tier := "plan-hit"
	if c.plans.add(o); o == memo.Claimed {
		tier = "plan-miss"
		c.sim.Cache.PlanMiss()
	} else {
		c.sim.Cache.PlanHit()
	}
	sp.End(tier)
	return res, err
}

// snapshot returns the exploration's own cache counters (a sweep looks
// no fragment up).
func (c *simCache) snapshot() simcache.Snapshot {
	s := simcache.Snapshot{
		AnalysisHits: c.analyses.hits.Load(), AnalysisMisses: c.analyses.misses.Load(),
		ScheduleHits: c.schedules.hits.Load(), ScheduleMisses: c.schedules.misses.Load(),
		PlanHits: c.plans.hits.Load(), PlanMisses: c.plans.misses.Load(),
	}
	s.ClassHits, s.ClassMisses = c.sim.ClassLookups()
	return s
}
