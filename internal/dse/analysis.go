package dse

import (
	"repro/internal/hls"
	"repro/internal/kernels"
	"repro/internal/memo"
	"repro/internal/simcache"
)

// AnalysisCache memoizes decoded front-end analyses by kernel fingerprint:
// the in-process tier above the byte store's memory → disk → remote chain.
// A long-running process (one `dse serve`, one fleet driver) keeps a single
// AnalysisCache for its lifetime, so a warm request's analyze cost is one
// map lookup — no decode, no disk probe. The zero value is not usable; use
// NewAnalysisCache.
//
// Like every cache tier in this codebase it is an accelerator only: a
// missing or invalid store blob degrades to a fresh hls.Analyze, never to
// an error the caller would not have seen without the cache.
type AnalysisCache struct {
	memo memo.Memo[string, *hls.Analysis]
}

// NewAnalysisCache returns an empty decoded-analysis memo.
func NewAnalysisCache() *AnalysisCache {
	return &AnalysisCache{memo: memo.Memo[string, *hls.Analysis]{What: "dse: analysis"}}
}

// Get returns the memoized analysis of k, computing it through the store on
// the first claim. A nil store skips the byte tiers (NoSimCache, or a
// store-less engine) — the memo still deduplicates within the process.
// Memo hits (waits included) are recorded on the store's analysis hit
// counter so the snapshot's hit/disk/remote/miss tiers still sum to the
// number of lookups.
func (ac *AnalysisCache) Get(k kernels.Kernel, store *simcache.Cache) (*hls.Analysis, error) {
	an, o, err := ac.memo.Get(k.Name+"\x00"+hls.KernelFingerprint(k), func() (*hls.Analysis, error) {
		return analyzeThrough(k, store)
	})
	if o != memo.Claimed && store != nil {
		store.AnalysisHit()
	}
	return an, err
}

// analyzeThrough computes one analysis via the byte store: encoded blobs
// are looked up (and published) under the kernel fingerprint, and a blob
// that fails semantic revalidation against the kernel is discarded in
// favor of a fresh analysis.
func analyzeThrough(k kernels.Kernel, store *simcache.Cache) (*hls.Analysis, error) {
	if store == nil {
		return hls.Analyze(k)
	}
	var computed *hls.Analysis
	data, err := store.Analysis(hls.KernelFingerprint(k), func() ([]byte, error) {
		an, aerr := hls.Analyze(k)
		if aerr != nil {
			return nil, aerr
		}
		computed = an
		return an.Encode(), nil
	})
	if err != nil {
		return nil, err
	}
	if computed != nil {
		// This goroutine ran the compute: skip the decode round trip.
		return computed, nil
	}
	an, derr := hls.DecodeAnalysis(k, data)
	if derr != nil {
		// The blob passed the store's syntactic envelope but not the
		// semantic revalidation — a poisoned or stale write under our key.
		// The cache is an accelerator: fall back to analyzing locally.
		return hls.Analyze(k)
	}
	return an, nil
}
