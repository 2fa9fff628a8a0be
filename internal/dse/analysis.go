package dse

import (
	"repro/internal/hls"
	"repro/internal/kernels"
	"repro/internal/memo"
	"repro/internal/simcache"
)

// AnalysisCache memoizes front-end analyses in process, keyed by the
// kernel's name and its whole nest (hls.KernelFingerprint). A long-running
// process (one `dse serve`, one fleet driver) keeps a single AnalysisCache
// for its lifetime, so a warm request's analyze cost is one key and one
// map lookup. Nothing below it stores analyses: they are a closed form,
// cheaper to recompute than to decode (DESIGN.md §18). The zero value is
// not usable; use NewAnalysisCache. A nil *AnalysisCache memoizes nothing.
type AnalysisCache struct {
	memo memo.Memo[string, *hls.Analysis]
}

// analysisPanic names an analysis in a recovered panic's error, memoized
// or not.
const analysisPanic = "dse: analysis"

// NewAnalysisCache returns an empty analysis memo.
func NewAnalysisCache() *AnalysisCache {
	return &AnalysisCache{memo: memo.Memo[string, *hls.Analysis]{What: analysisPanic}}
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
