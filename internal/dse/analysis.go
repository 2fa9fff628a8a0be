package dse

import (
	"repro/internal/core"
	"repro/internal/hls"
	"repro/internal/kernels"
	"repro/internal/memo"
	"repro/internal/simcache"
)

// AnalysisCache memoizes front-end analyses in process, keyed by the
// kernel's name and its whole nest (hls.KernelFingerprint), and beside
// each analysis the unit schedules explored on it: one hls.Schedule (the
// allocation, its storage plan and their simulation) per allocator,
// budget and scheduler configuration (DESIGN.md §24). A long-running
// process (one `dse serve`) keeps a single AnalysisCache for its
// lifetime, so a warm request's analyze cost is one key and one map
// lookup per kernel, and a unit any earlier exploration scheduled goes
// straight to the device models. Nothing below it stores analyses: they
// are a closed form, cheaper to recompute than to decode (DESIGN.md
// §18). The zero value is not usable; use NewAnalysisCache. A nil
// *AnalysisCache memoizes nothing.
type AnalysisCache struct {
	memo      memo.Memo[string, *hls.Analysis]
	schedules memo.Memo[scheduleKey, hls.Member]
}

// scheduleKey pins exactly the inputs hls.Analysis.Schedule reads, as
// simKey does for a simulation: the analysis (the kernel's nest, reuse
// summary and body graph, one object per memo key), the allocator, the
// budget Schedule resolves, the latency model and the RAM port count.
// The device is not in it: Realize applies that per point.
type scheduleKey struct {
	an     *hls.Analysis
	alg    string
	budget int
	lat    string
	ports  int
}

// analysisPanic names an analysis in a recovered panic's error, memoized
// or not.
const analysisPanic = "dse: analysis"

// NewAnalysisCache returns an empty analysis memo.
func NewAnalysisCache() *AnalysisCache {
	return &AnalysisCache{
		memo:      memo.Memo[string, *hls.Analysis]{What: analysisPanic},
		schedules: memo.Memo[scheduleKey, hls.Member]{What: estimator},
	}
}

// Get returns the analysis of k, memoized on a non-nil cache, and records
// the lookup on store: a miss when this call ran the analysis, a hit when
// the memo answered it (waits included). A nil cache analyzes on every
// call and records one miss per call, without rendering a key.
func (ac *AnalysisCache) Get(k kernels.Kernel, store *simcache.Cache) (*hls.Analysis, error) {
	return ac.get(k, store, new(hitMiss))
}

// get is Get, also counting the lookup on run.
func (ac *AnalysisCache) get(k kernels.Kernel, store *simcache.Cache, run *hitMiss) (*hls.Analysis, error) {
	analyze := func() (*hls.Analysis, error) {
		store.AnalysisMiss()
		run.add(memo.Claimed)
		return hls.Analyze(k)
	}
	if ac == nil {
		return memo.Do(analysisPanic, analyze)
	}
	an, o, err := ac.memo.Get(k.Name+"\x00"+hls.KernelFingerprint(k), analyze)
	if o != memo.Claimed {
		store.AnalysisHit()
		run.add(o)
	}
	return an, err
}

// member returns alg's schedule of an under opt as a member: its Err is
// the schedule's own failure (an infeasible budget, say). The error
// returned beside it is a recovered panic, "estimator panic: …", which
// fails the whole point. With an analysis memo, an must come from it, and
// the member is memoized, panics included, with the lookup recorded on
// the exploration's cache and its store as analyses are. Without one,
// member calls Schedule directly, lets a panic reach the caller's recover
// and records nothing.
func (ev *evaluator) member(an *hls.Analysis, alg core.Allocator, opt hls.Options) (hls.Member, error) {
	run := func() (hls.Member, error) {
		s, err := an.Schedule(alg, opt, ev.sim)
		return hls.Member{Schedule: s, Err: err}, nil
	}
	if ev.ac == nil {
		return run()
	}
	key := scheduleKey{an: an, alg: alg.Name(), budget: an.Budget(opt), lat: ev.cache.lats.of(opt.Point), ports: opt.Sched.PortsPerRAM}
	m, o, err := ev.ac.schedules.Get(key, run)
	if ev.cache.schedules.add(o); o == memo.Claimed {
		ev.cache.sim.Cache.ScheduleMiss()
	} else {
		ev.cache.sim.Cache.ScheduleHit()
	}
	return m, err
}
