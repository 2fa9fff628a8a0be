// Package simcache is the content-addressed store behind the sweep engine.
// It memoizes two kinds of values:
//
//   - class lengths: the list-scheduled latency of one iteration class
//     (full model and memory-level), keyed by the body DFG fingerprint,
//     the scheduler configuration and the class's register-hit set — so
//     across the plans of a design-space sweep the scheduler runs once per
//     distinct class per kernel, whatever allocator or budget produced the
//     plan (sched.Simulator); and
//   - entry fragments: one covered plan entry's register<->RAM transfer
//     counts, readable and writable through Cache.Fragment under the "f"
//     blob prefix. No sweep looks them up: the estimate never replays
//     transfers, and sched.Transfers computes them on demand.
//
// Keys are pure content: two kernels (or two shard processes) that agree
// on a key share the value.
//
// Each value kind is one row of a per-kind table (kind): its blob name,
// obs stage segment, codec, counters and obs tiers. One generic lookup
// runs every kind through the same tiers: a single-flight memory memo
// (internal/memo) first; then, on the claiming call only, the backing
// directory (NewDir) and the remote blob store (SetRemote); and compute
// last. Values persist as one small file per key, so independent worker
// processes — the shards of one sweep — share values through the
// filesystem, recovering the cross-shard deduplication a per-process cache
// loses. Disk writes are atomic (temp file + rename) and unreadable or
// corrupt files are treated as misses, so concurrent writers are safe:
// content addressing makes every writer write the same bytes.
//
// The remote tier (remote.go) is a content-addressed HTTP blob store
// (NewBlobHandler server, NewRemote client), so many hosts deduplicate
// simulation work without a shared filesystem. Computed and remotely
// recovered values propagate back down (disk write, best-effort remote
// PUT), and every tier is an accelerator only — any remote failure
// degrades to a local recomputation.
//
// Front-end analyses are not stored: they are a closed form, cheaper to
// recompute than to decode (DESIGN.md §18). The package still counts
// them, as reported by the in-process analysis memo of internal/dse
// (AnalysisHit, AnalysisMiss), next to the per-stage hit statistics of
// entry fragments, class schedules and whole-plan simulations (the last
// counted by the sweep engine's plan-level cache) that the CLIs report and
// shard merging sums; a sweep's entry counters read 0.
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
// register-file fill loads and write-back stores.
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

// kind is one value kind of the store: its static description (blob name,
// obs stage segment, codec) and one cache's state for it
// (memory memo, Snapshot counters, obs tier handles). The obs handles are
// nil when obs is not attached; StageStats methods no-op on nil, so the
// lookup never branches on enablement.
type kind[V any] struct {
	name   string // disk filename prefix and blob protocol path segment
	stage  string // obs stage segment: cache/<stage>/{hit,disk,remote,miss,wait}
	encode func(V) []byte
	// decode is the revalidation gate on every ingest path (disk read,
	// remote GET, blob-server PUT): anything that does not parse is a
	// miss, never a crash.
	decode func([]byte) (V, bool)

	memo                               memo.Memo[string, V] // its Wait is the wait tier
	hits, diskHits, remoteHits, misses atomic.Int64
	hitT, diskT, remoteT, missT        *obs.StageStats
}

// blobKind is the value-type-free face of a kind, for the code that handles
// every kind alike: SetObs and the blob server.
type blobKind interface {
	blobName() string
	canonical(data []byte) ([]byte, bool)
	resolve(m *obs.Metrics)
}

func (k *kind[V]) blobName() string { return k.name }

// canonical decodes one blob and re-encodes it: the form every blob takes
// when it is persisted or served. ok is false when the blob does not decode.
func (k *kind[V]) canonical(data []byte) ([]byte, bool) {
	v, ok := k.decode(data)
	if !ok {
		return nil, false
	}
	return k.encode(v), true
}

func (k *kind[V]) resolve(m *obs.Metrics) {
	k.hitT = m.Stage("cache/" + k.stage + "/hit")
	k.diskT = m.Stage("cache/" + k.stage + "/disk")
	k.remoteT = m.Stage("cache/" + k.stage + "/remote")
	k.missT = m.Stage("cache/" + k.stage + "/miss")
	k.memo.Wait = m.Stage("cache/" + k.stage + "/wait")
}

// maxValueBlobSize is the transfer cap of every blob, enforced on both
// protocol ends: a v1 value is a flag and two decimal ints, far under the
// cap, so anything larger is malformed by construction.
const maxValueBlobSize = 256

// Cache memoizes fragments and class lengths, and counts the analysis and
// whole-plan lookups its owners report. The zero value is not usable; use
// New or NewDir.
type Cache struct {
	dir    string  // "" = memory only
	remote *Remote // nil = no network tier

	frags   kind[Fragment]
	classes kind[ClassLen]

	analysisHits, analysisMisses atomic.Int64
	planHits, planMisses         atomic.Int64
	obsReg                       *obs.Metrics
	analysisHitT, analysisMissT  *obs.StageStats
	planHitT, planMissT          *obs.StageStats
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
			name: "c", stage: "class",
			encode: func(cl ClassLen) []byte { return encodeValue(cl.Iter, cl.Mem) },
			decode: func(data []byte) (ClassLen, bool) {
				a, b, ok := decodeValue(data)
				return ClassLen{Iter: a, Mem: b}, ok
			},
			memo: memo.Memo[string, ClassLen]{What: "simcache: class"},
		},
	}
}

// kinds is the cache's kind list, for code that handles every kind alike.
func (c *Cache) kinds() [2]blobKind {
	return [2]blobKind{&c.frags, &c.classes}
}

// NewDir returns a cache backed by dir (created if absent): every computed
// value is persisted as one file, and a key missing from memory is looked
// up on disk before being recomputed. Multiple processes may share a
// directory concurrently.
func NewDir(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("simcache: %w", err)
	}
	c := New()
	c.dir = dir
	return c, nil
}

// Dir returns the backing directory ("" for a memory-only cache).
func (c *Cache) Dir() string { return c.dir }

// SetRemote attaches the network tier: keys missing from memory and disk
// are fetched from the blob server before being recomputed, and computed
// values are published back (best-effort). Call before concurrent use,
// like SetObs — in either order: whichever of the two runs second wires
// the remote tier's own obs counters.
func (c *Cache) SetRemote(r *Remote) {
	c.remote = r
	if c.obsReg != nil {
		r.SetObs(c.obsReg)
	}
}

// SetObs mirrors the cache's tier outcomes into per-stage obs counters
// ("cache/{frag,class}/{hit,disk,remote,miss,wait}",
// "cache/{analysis,plan}/{hit,miss}"), with the wait tier a nanosecond
// histogram of time spent blocked behind another goroutine's in-flight
// computation. An
// attached remote tier gets its counters too (see Remote.SetObs),
// regardless of whether SetRemote ran before or after this. The stats
// Snapshot counters are unaffected. Call before concurrent use.
func (c *Cache) SetObs(m *obs.Metrics) {
	if m == nil {
		return
	}
	c.obsReg = m
	for _, k := range c.kinds() {
		k.resolve(m)
	}
	c.analysisHitT = m.Stage("cache/analysis/hit")
	c.analysisMissT = m.Stage("cache/analysis/miss")
	c.planHitT = m.Stage("cache/plan/hit")
	c.planMissT = m.Stage("cache/plan/miss")
	c.remote.SetObs(m)
}

// Fragment returns the memoized fragment for key, running compute on the
// first claim (after the disk and remote probes when those tiers are
// attached). Errors are memoized in memory but never persisted.
func (c *Cache) Fragment(key string, compute func() (Fragment, error)) (Fragment, error) {
	return c.frags.get(c, key, compute)
}

// ClassLen returns the memoized class lengths for key, running compute on
// the first claim (after the disk and remote probes).
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
// tiers below memory and computes; every other call counts as a memory hit,
// and one that blocked behind the claim is observed on the wait tier
// instead of the hit tier. It is a method of the generic type rather than
// a generic function: called through a generic function from an inlined
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

// load probes the tiers below memory for key — disk first, then the remote
// blob store — and counts the tier that supplied the value. A remote hit is
// written back to the local disk tier so the next process sharing the
// directory (and this process after restart) finds it locally. Any read,
// network or decode failure is a miss.
func (k *kind[V]) load(c *Cache, key string) (V, bool) {
	var zero V
	if c.dir == "" && c.remote == nil {
		return zero, false
	}
	hash := hashKey(key)
	if c.dir != "" {
		if data, err := os.ReadFile(filepath.Join(c.dir, k.name+hash)); err == nil {
			if v, ok := k.decode(data); ok {
				k.diskHits.Add(1)
				k.diskT.Inc()
				return v, true
			}
		}
	}
	if c.remote != nil {
		if data, found, err := c.remote.get(k.name, hash); err == nil && found {
			if v, ok := k.decode(data); ok {
				k.remoteHits.Add(1)
				k.remoteT.Inc()
				if c.dir != "" {
					c.writeBlob(k.name+hash, k.encode(v))
				}
				return v, true
			}
		}
	}
	return zero, false
}

// store persists one computed value to the tiers below memory: the local
// disk file (when directory-backed) and the remote blob store (when
// attached), both best-effort — the lower tiers are accelerators, never a
// correctness dependency.
func (k *kind[V]) store(c *Cache, key string, v V) {
	if c.dir == "" && c.remote == nil {
		return
	}
	hash := hashKey(key)
	data := k.encode(v)
	if c.dir != "" {
		c.writeBlob(k.name+hash, data)
	}
	if c.remote != nil {
		c.remote.put(k.name, hash, data)
	}
}

// counts returns the kind's Snapshot counters.
func (k *kind[V]) counts() (hits, diskHits, remoteHits, misses int64) {
	return k.hits.Load(), k.diskHits.Load(), k.remoteHits.Load(), k.misses.Load()
}

// hashKey is the content address of one key: keys are long canonical
// strings, and the SHA-256 hex digest is the filename- and URL-safe form
// shared by the disk tier (filename suffix) and the blob protocol (path
// segment).
func hashKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// encodeValue and decodeValue are the v1 format of both kinds (fragments
// and class lengths): a leading format flag and two non-negative decimal
// ints.
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

// writeBlob persists one blob atomically under its on-disk name: full write
// to a temp file in the same directory, then rename. Failures are ignored —
// content addressing makes every writer write the same bytes, so a lost
// write only costs a future recomputation.
func (c *Cache) writeBlob(name string, data []byte) {
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
