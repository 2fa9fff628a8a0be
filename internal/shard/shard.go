// Package shard makes design-space exploration distributable: it
// partitions a dse.Space across processes by whole units, defines a
// versioned, self-describing encoding for one shard's results (JSON
// lines: a header carrying the space fingerprint and shard coordinates,
// one row per point, a trailer marking completeness), and merges shard
// files back into a ResultSet byte-identical — through every reporter —
// to a single-process run.
//
// The partition deals whole units round-robin: shard i of n owns the
// points g with ⌊g/w⌋ mod n = i, where the unit size w = |Devices|·|Scheds|
// is read from the header's space spec (dse.ShardPoint). A unit is the
// consecutive points of one (kernel, allocator, budget) block, which the
// engine schedules once, so each unit is scheduled by one shard only.
// Because the point order is row-major with the kernel axis outermost,
// the units interleave across kernels, so every shard sees every kernel
// (while the shard count allows) and the per-kernel front-end
// memoization keeps paying off inside each worker process. Version 1
// files, written before the partition dealt units, dealt single points
// (g ≡ i mod n); Salvage reads them as units of one point.
//
// Rows carry only the design metrics the reporters and Pareto extraction
// read — decoded designs have no allocation, storage plan or schedule
// attached. Rows are written and read without reflection (row.go): the
// Writer appends each with strconv, in exactly the bytes encoding/json
// writes, and the reader scans that form (strings without escapes) line
// by line, handing the first line it does not recognise, and everything
// after it, to encoding/json. Headers and trailers always go through
// encoding/json.
// One reader decodes every file (Salvage, salvage.go), and one
// Assembler reassembles them; Merge is the strict front over the two: one
// fingerprint and one encoding version across files, every shard present
// exactly once and complete, every row owned by the shard that wrote it.
// UniqueSims is summed across shards (each process runs its own
// simulation cache, so the sum can exceed a single process's count —
// plans deduplicated globally may be simulated once per shard).
//
// Static invariants enforced by reprovet (DESIGN.md §10):
//
//repro:deterministic-output
//repro:recover-workers
package shard

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/dse"
	"repro/internal/obs"
	"repro/internal/simcache"
)

// Plan names one shard of an n-way partition: the design points of every
// Count-th unit, starting at unit Index.
type Plan struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// ParsePlan parses the CLI shard syntax "i/n" (e.g. "0/3").
func ParsePlan(s string) (Plan, error) {
	is, ns, ok := strings.Cut(s, "/")
	if !ok {
		return Plan{}, fmt.Errorf("shard: bad shard %q (want index/count, e.g. 0/3)", s)
	}
	i, err := strconv.Atoi(strings.TrimSpace(is))
	if err != nil {
		return Plan{}, fmt.Errorf("shard: bad shard index %q", is)
	}
	n, err := strconv.Atoi(strings.TrimSpace(ns))
	if err != nil {
		return Plan{}, fmt.Errorf("shard: bad shard count %q", ns)
	}
	p := Plan{Index: i, Count: n}
	return p, p.Validate()
}

// Validate checks the partition coordinates.
func (p Plan) Validate() error {
	if p.Count < 1 || p.Index < 0 || p.Index >= p.Count {
		return fmt.Errorf("shard: invalid shard %d/%d (want count ≥ 1 and 0 ≤ index < count)", p.Index, p.Count)
	}
	return nil
}

// String renders the CLI syntax "i/n".
func (p Plan) String() string { return fmt.Sprintf("%d/%d", p.Index, p.Count) }

// Owns reports whether this shard evaluates global point g of a space
// whose units span unit points: ⌊g/unit⌋ mod Count = Index.
func (p Plan) Owns(g, unit int) bool { return g >= 0 && unit > 0 && g/unit%p.Count == p.Index }

// Size returns how many of total points, in units of unit points, this
// shard owns.
func (p Plan) Size(total, unit int) int { return dse.ShardSize(p.Index, p.Count, total, unit) }

// formatVersion is the encoding version Writer writes. Version 2 files
// are partitioned by units; version 1 files, which Salvage still reads,
// by single points. A shard file's rows depend on its version, so an
// older reader refuses a version 2 file instead of rejecting its rows as
// foreign.
const (
	formatName    = "repro-dse-shard"
	formatVersion = 2
)

// header is the first line of a shard file: enough to validate a merge
// (fingerprint, shard coordinates, global point count) and to rebuild the
// space (the registry-name spec).
type header struct {
	Format      string        `json:"format"`
	Version     int           `json:"version"`
	Fingerprint string        `json:"fingerprint"`
	Shard       Plan          `json:"shard"`
	Points      int           `json:"points"` // global space size
	Rows        int           `json:"rows"`   // points this shard owns
	Space       dse.SpaceSpec `json:"space"`
	// Owned, when present, replaces the unit ownership rule with an
	// explicit global-index list: the file is a fleet task file carrying a
	// residual point-set (salvage.go), not one shard of a uniform
	// partition. Absent on ordinary shard files, so their encoding — and
	// the byte-identity of everything downstream — is unchanged. Strict
	// Merge rejects task files; the fleet Assembler accepts both.
	Owned []int `json:"owned,omitempty"`
}

// line is the union of the three post-header line shapes: a result row
// (Index + Design or Error) or the trailer (EOF, written last — a file
// without one was truncated mid-run).
type line struct {
	Index      *int         `json:"index,omitempty"`
	Design     *dse.Metrics `json:"design,omitempty"`
	Error      string       `json:"error,omitempty"`
	EOF        bool         `json:"eof,omitempty"`
	Rows       int          `json:"rows,omitempty"`
	UniqueSims int          `json:"unique_sims,omitempty"`
	// Cache carries the shard process's per-stage simulation-cache
	// counters on the trailer; merge sums them across shards. Omitted when
	// the cache was disabled (and by earlier writers).
	Cache *simcache.Snapshot `json:"cache,omitempty"`
	// Obs carries the shard process's per-stage metrics snapshot on the
	// trailer; merge sums them stage-wise (obs.Snapshot.Add). Omitted when
	// observability was disabled (and by earlier writers).
	Obs *obs.Snapshot `json:"obs,omitempty"`
}

// Writer streams one shard's results into the portable encoding; it
// implements dse.StreamReporter, so it plugs directly into
// Engine.ExploreShardStream and holds no per-point state.
type Writer struct {
	w     *bufio.Writer
	enc   *json.Encoder // header and trailer
	buf   []byte        // one row's encoding, reused (row.go)
	plan  Plan
	owned []int // explicit task ownership; nil for shard files
	rows  int
}

// NewWriter returns a Writer for one shard of the partition.
func NewWriter(w io.Writer, p Plan) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{w: bw, enc: json.NewEncoder(bw), plan: p}
}

// NewTaskWriter returns a Writer for a fleet task file: the same row and
// trailer encoding as a shard file, but the header carries the explicit
// owned point-index list instead of a partition rule. Task files
// are produced by `dse -points` and the serve ?points= form, salvaged
// like shard files, and reassembled by the fleet Assembler; strict Merge
// rejects them.
func NewTaskWriter(w io.Writer, owned []int) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{w: bw, enc: json.NewEncoder(bw), plan: Plan{Index: 0, Count: 1}, owned: owned}
}

// Begin implements dse.StreamReporter: it writes the header line.
func (sw *Writer) Begin(sp dse.Space, total int) error {
	spec := dse.Spec(sp)
	return sw.enc.Encode(header{
		Format:      formatName,
		Version:     formatVersion,
		Fingerprint: spec.Fingerprint(),
		Shard:       sw.plan,
		Points:      sp.Size(),
		Rows:        total,
		Space:       spec,
		Owned:       sw.owned,
	})
}

// Point implements dse.StreamReporter: one JSON line per result.
func (sw *Writer) Point(r dse.Result) error {
	var m *dse.Metrics
	msg := ""
	if r.Ok() {
		mm := dse.MetricsOf(r.Design)
		if r.Design.Algorithm != r.Point.Allocator.Name() {
			mm.Algorithm = r.Design.Algorithm
		}
		m = &mm
	} else if r.Err != nil && r.Err.Error() != "" {
		msg = r.Err.Error()
	} else {
		// Also covers an error whose message is empty: the row must carry
		// exactly one of design or error, or decode would reject the file.
		msg = "no design"
	}
	sw.rows++
	var err error
	if sw.buf, err = appendRow(sw.buf[:0], r.Point.Index, m, msg); err != nil {
		return err
	}
	_, err = sw.w.Write(sw.buf)
	return err
}

// End implements dse.StreamReporter: it writes the trailer and flushes.
func (sw *Writer) End(st dse.StreamStats) error {
	ln := line{EOF: true, Rows: sw.rows, UniqueSims: st.UniqueSims}
	if !st.Cache.Zero() {
		snap := st.Cache
		ln.Cache = &snap
	}
	if !st.Obs.Zero() {
		snap := st.Obs
		ln.Obs = &snap
	}
	if err := sw.enc.Encode(ln); err != nil {
		return err
	}
	return sw.w.Flush()
}

// Run evaluates one shard of the space and streams the portable encoding
// to w: the worker-process entry point behind `dse -shard i/n`.
func Run(e dse.Engine, sp dse.Space, p Plan, w io.Writer) (dse.StreamStats, error) {
	if err := p.Validate(); err != nil {
		return dse.StreamStats{}, err
	}
	if sp.PortfolioAll {
		// Rows carry one design per point; the member diagnostic would be
		// silently dropped on encode, so refuse it at any shard count.
		return dse.StreamStats{}, fmt.Errorf("shard: the portfolio-all diagnostic is not supported in shard encodings (rows carry winners only)")
	}
	return e.ExploreShardStream(context.Background(), sp, p.Index, p.Count, NewWriter(w, p))
}

// Merge reassembles the full ResultSet from one reader per shard file: a
// strict front over Salvage and the Assembler. Every file must be complete
// (a truncated, torn or foreign file fails with Salvaged.Stop), none may
// be a fleet task file, and together they must be exactly the n shards of
// one n-way partition, in one encoding version, of one space fingerprint.
// The returned set reports identically — byte for byte, Pareto frontiers
// recomputed on the merged results — to a single-process Explore of the
// same space.
func Merge(readers ...io.Reader) (*dse.ResultSet, error) {
	return merge(readers, nil)
}

// merge is Merge with an optional display name per reader (file paths,
// when coming from MergeFiles) for error messages.
func merge(readers []io.Reader, names []string) (*dse.ResultSet, error) {
	if len(readers) == 0 {
		return nil, errors.New("shard: no shard files to merge")
	}
	name := func(i int) string {
		if names != nil {
			return names[i]
		}
		return fmt.Sprintf("file %d", i)
	}
	files := make([]*Salvaged, len(readers))
	for i, r := range readers {
		s, err := Salvage(r)
		if err == nil && s.Owned != nil {
			err = errors.New("shard: fleet task file (explicit owned point list); merge cannot reassemble tasks — use the fleet driver")
		}
		if err == nil {
			err = s.Stop
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name(i), err)
		}
		files[i] = s
	}
	first := files[0]
	seen := map[int]bool{}
	for i, f := range files {
		if f.Fingerprint != first.Fingerprint {
			return nil, fmt.Errorf("shard: %s: space fingerprint mismatch: %s vs %s (shards of different explorations)",
				name(i), f.Fingerprint, first.Fingerprint)
		}
		if f.Shard.Count != first.Shard.Count || f.SpacePoints != first.SpacePoints {
			return nil, fmt.Errorf("shard: %s: partition mismatch: shard %s of %d points vs shard %s of %d points",
				name(i), f.Shard, f.SpacePoints, first.Shard, first.SpacePoints)
		}
		if f.Version != first.Version {
			// Version 1 deals points and version 2 units: shards of one
			// count own different points.
			return nil, fmt.Errorf("shard: %s: partition mismatch: shard %s of version %d vs shard %s of version %d",
				name(i), f.Shard, f.Version, first.Shard, first.Version)
		}
		if seen[f.Shard.Index] {
			return nil, fmt.Errorf("shard: duplicate shard %s", f.Shard)
		}
		seen[f.Shard.Index] = true
	}
	for i := 0; i < first.Shard.Count; i++ {
		if !seen[i] {
			return nil, fmt.Errorf("shard: missing shard %d/%d", i, first.Shard.Count)
		}
	}
	a, err := NewAssembler(first.Spec)
	if err != nil {
		return nil, err
	}
	if a.Points() != first.SpacePoints {
		return nil, fmt.Errorf("shard: rebuilt space has %d points, header says %d", a.Points(), first.SpacePoints)
	}
	for _, f := range files {
		if _, err := a.Absorb(f); err != nil {
			return nil, err
		}
	}
	return a.ResultSet()
}

// rowResult decodes one row back into the Result for its global point —
// the inverse of Writer.Point.
func rowResult(p dse.Point, ln *line) dse.Result {
	r := dse.Result{Point: p}
	if ln.Design != nil {
		algo := p.Allocator.Name()
		if ln.Design.Algorithm != "" {
			algo = ln.Design.Algorithm // portfolio winner
		}
		r.Design = ln.Design.Design(p.Kernel.Name, algo)
	} else {
		r.Err = errors.New(ln.Error)
	}
	return r
}

// MergeFiles is Merge over files on disk.
func MergeFiles(paths ...string) (*dse.ResultSet, error) {
	readers := make([]io.Reader, len(paths))
	closers := make([]io.Closer, 0, len(paths))
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		closers = append(closers, f)
		readers[i] = f
	}
	return merge(readers, paths)
}
