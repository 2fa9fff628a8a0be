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
// the lookup on store (when non-nil): a miss when this call ran the
// analysis, a hit when the memo answered it (waits included). A nil cache
// analyzes on every call and records one miss per call, without rendering
// a key.
func (ac *AnalysisCache) Get(k kernels.Kernel, store *simcache.Cache) (*hls.Analysis, error) {
	analyze := func() (*hls.Analysis, error) {
		if store != nil {
			store.AnalysisMiss()
		}
		return hls.Analyze(k)
	}
	if ac == nil {
		return memo.Do(analysisPanic, analyze)
	}
	an, o, err := ac.memo.Get(k.Name+"\x00"+hls.KernelFingerprint(k), analyze)
	if o != memo.Claimed && store != nil {
		store.AnalysisHit()
	}
	return an, err
}

// schedule returns alg's schedule of an under opt as a member: its Err is
// the schedule's own failure (an infeasible budget, say). The error
// returned beside it is a recovered panic, "estimator panic: …", which
// fails the whole point. On a non-nil cache an must come from Get, lat
// must be opt.Sched.Lat.Fingerprint(), and the member is memoized, panics
// included, with the lookup recorded on store (when non-nil) as Get
// records analyses. A nil cache ignores lat, calls Schedule directly,
// lets a panic reach the caller's recover and records nothing.
func (ac *AnalysisCache) schedule(an *hls.Analysis, alg core.Allocator, opt hls.Options, lat string, sim hls.SimFunc, store *simcache.Cache) (hls.Member, error) {
	run := func() (hls.Member, error) {
		s, err := an.Schedule(alg, opt, sim)
		return hls.Member{Schedule: s, Err: err}, nil
	}
	if ac == nil {
		return run()
	}
	key := scheduleKey{an: an, alg: alg.Name(), budget: an.Budget(opt), lat: lat, ports: opt.Sched.PortsPerRAM}
	m, o, err := ac.schedules.Get(key, run)
	if store != nil {
		if o == memo.Claimed {
			store.ScheduleMiss()
		} else {
			store.ScheduleHit()
		}
	}
	return m, err
}
