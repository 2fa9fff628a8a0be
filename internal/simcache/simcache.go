// Package simcache is the content-addressed store behind the sweep engine.
// It memoizes two kinds of values:
//
//   - class lengths: the list-scheduled latency of one iteration class
//     (full model and memory-level), keyed by the body DFG fingerprint,
//     the scheduler configuration and the class's register-hit set — so
//     across the plans of a design-space sweep the scheduler runs once per
//     distinct class per kernel, whatever allocator or budget produced the
//     plan (sched.Simulator). They live in memory only: scheduling a class
//     costs about 1.4 µs, less than reading its value back from a file
//     (DESIGN.md §22); and
//   - entry fragments: one covered plan entry's register<->RAM transfer
//     counts, readable and writable through Cache.Fragment. No sweep looks
//     them up: the estimate never replays transfers, and sched.Transfers
//     computes them on demand.
//
// Keys are pure content: two kernels that agree on a key share the value.
//
// Each value kind is one row of a per-kind table (kind): its file name
// prefix, obs stage segment, file codec, counters and obs tiers. One
// generic lookup runs every kind: a single-flight memory memo
// (internal/memo) first; then, on the claiming call only and for a kind
// with a codec, the backing directory of a NewDir cache; and compute last.
// Only fragments have a codec, so only they round-trip through one small
// file per key. Writes are atomic (temp file + rename), and unreadable or
// corrupt files are misses. No sweep reads the directory: NewDir, Dir,
// Fragment and the fragment files remain because the benchmark's tier
// probe (bench/replay.go) times them, and they go when it stops (ROADMAP
// item 1). Class files that older builds left in a directory are never
// read nor deleted.
//
// Front-end analyses are not stored: they are a closed form, cheaper to
// recompute than to decode (DESIGN.md §18). The package still counts
// them, as reported by the in-process analysis memo of internal/dse
// (AnalysisHit, AnalysisMiss), and the unit schedules that memo keeps
// beside them (ScheduleHit, ScheduleMiss, DESIGN.md §24), next to the
// per-stage hit statistics of entry fragments, class schedules and
// whole-plan simulations (the last counted by the sweep engine's
// plan-level cache) that the CLIs report and shard merging sums; a
// sweep's entry counters read 0.
package simcache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/memo"
	"repro/internal/obs"
)

// Fragment is one covered plan entry's transfer replay over the whole nest:
// register-file fill loads and write-back stores. No sweep stores one; the
// type remains for the benchmark's tier probe and goes with Cache.Fragment
// (ROADMAP item 1).
type Fragment struct {
	Loads  int
	Stores int
}

// ClassLen is the list-scheduled latency of one iteration class: the full
// latency model (Iter) and the memory-level model with operator latencies
// zeroed (Mem, the paper's Tmem). Lengths are stored unclamped; consumers
// apply the one-control-state-minimum rule.
type ClassLen struct {
	Iter int
	Mem  int
}

// kind is one value kind of the store: its static description (file name
// prefix, obs stage segment, codec) and one cache's state for it (memory
// memo, Snapshot counters, obs tier handles). The obs handles are nil
// when obs is not attached; StageStats methods no-op on nil, so the
// lookup never branches on enablement.
type kind[V any] struct {
	name  string // file name prefix
	stage string // obs stage segment: cache/<stage>/{hit,disk,miss,wait}
	// encode and decode are the kind's file format; a kind without them
	// lives in memory only. decode is the revalidation gate on the one
	// ingest path, a file read: anything that does not parse is a miss,
	// never a crash.
	encode func(V) []byte
	decode func([]byte) (V, bool)

	memo                   memo.Memo[string, V] // its Wait is the wait tier
	hits, diskHits, misses atomic.Int64
	hitT, diskT, missT     *obs.StageStats
}

func (k *kind[V]) resolve(m *obs.Metrics) {
	k.hitT = m.Stage("cache/" + k.stage + "/hit")
	if k.decode != nil {
		k.diskT = m.Stage("cache/" + k.stage + "/disk")
	}
	k.missT = m.Stage("cache/" + k.stage + "/miss")
	k.memo.Wait = m.Stage("cache/" + k.stage + "/wait")
}

// Cache memoizes fragments and class lengths, and counts the analysis and
// whole-plan lookups its owners report. The zero value is not usable; use
// New or NewDir.
type Cache struct {
	dir string // "" = memory only

	frags   kind[Fragment]
	classes kind[ClassLen]

	analysisHits, analysisMisses atomic.Int64
	scheduleHits, scheduleMisses atomic.Int64
	planHits, planMisses         atomic.Int64
	analysisHitT, analysisMissT  *obs.StageStats
	planHitT, planMissT          *obs.StageStats
	// obs registers the cache/schedule stages on first use, so a process
	// without a schedule memo (every CLI sweep) shows none of them.
	obs *obs.Metrics
}

// New returns an in-memory cache.
func New() *Cache {
	return &Cache{
		frags: kind[Fragment]{
			name: "f", stage: "frag",
			encode: func(f Fragment) []byte { return encodeValue(f.Loads, f.Stores) },
			decode: func(data []byte) (Fragment, bool) {
				a, b, ok := decodeValue(data)
				return Fragment{Loads: a, Stores: b}, ok
			},
			memo: memo.Memo[string, Fragment]{What: "simcache: fragment"},
		},
		classes: kind[ClassLen]{
			stage: "class",
			memo:  memo.Memo[string, ClassLen]{What: "simcache: class"},
		},
	}
}

// NewDir returns a cache whose fragments are backed by dir (created if
// absent): every computed fragment is persisted as one file, and a
// fragment missing from memory is looked up on disk before being
// recomputed. Class lengths stay in memory, as in New. Multiple processes
// may share a directory concurrently. No sweep reads the directory;
// NewDir remains for the benchmark's tier probe and goes when it stops
// (ROADMAP item 1).
func NewDir(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("simcache: %w", err)
	}
	c := New()
	c.dir = dir
	return c, nil
}

// Dir returns the backing directory ("" for a memory-only cache). Like
// NewDir, it remains for the benchmark and goes with it.
func (c *Cache) Dir() string { return c.dir }

// SetObs mirrors the cache's tier outcomes into per-stage obs counters
// ("cache/frag/{hit,disk,miss,wait}", "cache/class/{hit,miss,wait}",
// "cache/{analysis,plan}/{hit,miss}", and "cache/schedule/{hit,miss}"
// from the first schedule lookup on), with the wait tier a nanosecond
// histogram of time spent blocked behind another goroutine's in-flight
// computation. The stats Snapshot counters are unaffected. Call before
// concurrent use.
func (c *Cache) SetObs(m *obs.Metrics) {
	if m == nil {
		return
	}
	c.frags.resolve(m)
	c.classes.resolve(m)
	c.analysisHitT = m.Stage("cache/analysis/hit")
	c.analysisMissT = m.Stage("cache/analysis/miss")
	c.planHitT = m.Stage("cache/plan/hit")
	c.planMissT = m.Stage("cache/plan/miss")
	c.obs = m
}

// Fragment returns the memoized fragment for key, running compute on the
// first claim (after the file probe when the cache is directory-backed).
// Errors are memoized in memory but never persisted. No sweep calls it; it
// remains for the benchmark's tier probe and goes with NewDir.
func (c *Cache) Fragment(key string, compute func() (Fragment, error)) (Fragment, error) {
	return c.frags.get(c, key, compute)
}

// ClassLen returns the memoized class lengths for key, running compute on
// the first claim. It never reads or writes the backing directory.
func (c *Cache) ClassLen(key string, compute func() (ClassLen, error)) (ClassLen, error) {
	return c.classes.get(c, key, compute)
}

// AnalysisHit and AnalysisMiss record the outcomes of the in-process
// analysis memo (internal/dse): a lookup answered by the memo, and one
// that ran the analysis. The store holds no analyses — they are cheaper to
// recompute than to decode — so these are its only analysis counters.
func (c *Cache) AnalysisHit() {
	c.analysisHits.Add(1)
	c.analysisHitT.Inc()
}

func (c *Cache) AnalysisMiss() {
	c.analysisMisses.Add(1)
	c.analysisMissT.Inc()
}

// ScheduleHit and ScheduleMiss record the outcomes of the unit-schedule
// memo beside the analyses (internal/dse): a lookup answered by the memo
// (waits included), and one that ran the allocator, the plan and the
// simulation.
func (c *Cache) ScheduleHit() {
	c.scheduleHits.Add(1)
	c.obs.Stage("cache/schedule/hit").Inc()
}

func (c *Cache) ScheduleMiss() {
	c.scheduleMisses.Add(1)
	c.obs.Stage("cache/schedule/miss").Inc()
}

// PlanHit and PlanMiss record the whole-plan simulation cache outcomes the
// sweep engine's plan-level cache observes, so one snapshot carries every
// stage.
func (c *Cache) PlanHit() {
	c.planHits.Add(1)
	c.planHitT.Inc()
}

func (c *Cache) PlanMiss() {
	c.planMisses.Add(1)
	c.planMissT.Inc()
}

// get is the one lookup of every kind. Only the claiming call probes the
// backing file and computes; every other call counts as a memory hit, and
// one that blocked behind the claim is observed on the wait tier instead
// of the hit tier. It is a method of the generic type rather than a
// generic function: called through a generic function from an inlined
// wrapper, a caller's compute closure escapes and every memory hit
// allocates (TestWarmCacheHitsDoNotAllocate in internal/sched).
func (k *kind[V]) get(c *Cache, key string, compute func() (V, error)) (V, error) {
	v, o, err := k.memo.Get(key, func() (V, error) {
		if v, ok := k.load(c, key); ok {
			return v, nil
		}
		k.misses.Add(1)
		k.missT.Inc()
		v, err := compute()
		if err == nil {
			k.store(c, key, v)
		}
		return v, err
	})
	if o != memo.Claimed {
		k.hits.Add(1)
		if o == memo.Hit {
			k.hitT.Inc()
		}
	}
	return v, err
}

// persisted reports whether the kind's values round-trip through c's
// backing directory: the cache has one and the kind has a codec.
func (k *kind[V]) persisted(c *Cache) bool { return c.dir != "" && k.decode != nil }

// load reads key's file from the backing directory and counts a disk hit.
// A read or decode failure is a miss.
func (k *kind[V]) load(c *Cache, key string) (V, bool) {
	var zero V
	if !k.persisted(c) {
		return zero, false
	}
	data, err := os.ReadFile(filepath.Join(c.dir, k.name+hashKey(key)))
	if err != nil {
		return zero, false
	}
	v, ok := k.decode(data)
	if !ok {
		return zero, false
	}
	k.diskHits.Add(1)
	k.diskT.Inc()
	return v, true
}

// store persists one computed value to its file, best-effort: the file is
// an accelerator, never a correctness dependency.
func (k *kind[V]) store(c *Cache, key string, v V) {
	if k.persisted(c) {
		c.writeFile(k.name+hashKey(key), k.encode(v))
	}
}

// counts returns the kind's Snapshot counters.
func (k *kind[V]) counts() (hits, diskHits, misses int64) {
	return k.hits.Load(), k.diskHits.Load(), k.misses.Load()
}

// hashKey is the content address of one key: keys are long canonical
// strings, and the SHA-256 hex digest is the filename-safe suffix of the
// key's file.
func hashKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// encodeValue and decodeValue are the v1 format of the fragment files: a
// leading format flag and two non-negative decimal ints.
func encodeValue(a, b int) []byte {
	return []byte(fmt.Sprintf("1 %d %d\n", a, b))
}

func decodeValue(data []byte) (a, b int, ok bool) {
	var v int
	if n, err := fmt.Sscanf(string(data), "%d %d %d", &v, &a, &b); n != 3 || err != nil || v != 1 {
		return 0, 0, false
	}
	return a, b, a >= 0 && b >= 0
}

// writeFile persists one value file atomically under its name: full write
// to a temp file in the same directory, then rename. Failures are ignored —
// content addressing makes every writer write the same bytes, so a lost
// write only costs a future recomputation.
func (c *Cache) writeFile(name string, data []byte) {
	tmp, err := os.CreateTemp(c.dir, "tmp-")
	if err != nil {
		return
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmpName)
		return
	}
	if err := os.Rename(tmpName, filepath.Join(c.dir, name)); err != nil {
		os.Remove(tmpName)
	}
}
