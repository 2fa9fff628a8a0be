package shard

// Salvage is the one reader of shard and task files. A file whose writer
// crashed, was killed as a straggler, or lost its connection mid-stream is
// truncated: header, some valid prefix of rows, no trailer (or a torn
// final line). Salvage recovers every validated row of the prefix and
// says why it ended; a file that validates to its end is Complete. The
// Assembler then reassembles complete and salvaged pieces — whatever mix
// of shard files and explicit-point task files a fleet's recovery
// produced — into a ResultSet byte-identical (through every reporter) to
// the single-process run: one fingerprint, every point exactly once,
// every row owned by the file that carried it. Strict Merge is the same
// two steps with every file required complete.
//
// Nothing here allocates in proportion to what a header claims: a shard
// file's units are checked by arithmetic (dse.ShardPoint) and a task file
// against the owned list it actually carried, so a header declaring 2^40
// points costs only the rows that back it.
//
// Static invariants enforced by reprovet (DESIGN.md §10) hold here too:
//
//repro:deterministic-output

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/dse"
	"repro/internal/obs"
	"repro/internal/simcache"
)

// Salvaged is the recovered content of one shard or task file: the
// header's identity and ownership rule, and the valid row prefix.
type Salvaged struct {
	// Spec and Fingerprint identify the exploration the file belongs to.
	Spec        dse.SpaceSpec
	Fingerprint string
	// SpacePoints is the global space size the header declared.
	SpacePoints int
	// Shard is the header's partition coordinates (0/1 on a task file).
	Shard Plan
	// Version is the header's encoding version: 2 partitions by units, 1
	// (older writers) by single points.
	Version int
	// Owned is a task file's explicit owned point list, increasing; nil on
	// a shard file, whose writer owned Shard's units.
	Owned []int
	// Complete reports a file that validated to its end: every owned point
	// in order, header and trailer row counts agreeing with the rows,
	// nothing after the trailer. Only then do UniqueSims/Cache/Obs carry
	// the writer's stats. Stop is nil exactly when Complete holds;
	// otherwise it says why the valid prefix ended, in the words strict
	// Merge reports.
	Complete   bool
	Stop       error
	UniqueSims int
	Cache      simcache.Snapshot
	Obs        obs.Snapshot

	unit int // points per unit of the partition: 1 on version 1
	rows []line
}

// Rows returns how many rows were recovered.
func (s *Salvaged) Rows() int {
	if s == nil {
		return 0
	}
	return len(s.rows)
}

// Salvage reads as much of a shard or task file as validates: the header
// (which must be intact — a file without one carries nothing attributable
// to an exploration and is an error), then rows up to the first
// truncation, torn line, or ownership violation, then the trailer if one
// follows consistently. A missing row or trailer is not an error: it ends
// the prefix and becomes Stop.
func Salvage(r io.Reader) (*Salvaged, error) {
	dec := json.NewDecoder(r)
	var h header
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("shard: bad or missing header: %w", err)
	}
	if h.Format != formatName {
		return nil, fmt.Errorf("shard: not a shard file (format %q, want %q)", h.Format, formatName)
	}
	unit := 1 // version 1 dealt single points
	switch h.Version {
	case 1:
	case formatVersion:
		// The unit size comes from the spec the file carries: an empty
		// axis names none, and neither does a product that overflowed.
		if unit = h.Space.UnitSize(); unit == 0 || unit/len(h.Space.Scheds) != len(h.Space.Devices) {
			return nil, fmt.Errorf("shard: header space has %d devices × %d scheds: no unit size to partition by",
				len(h.Space.Devices), len(h.Space.Scheds))
		}
	default:
		return nil, fmt.Errorf("shard: unsupported encoding version %d (want %d)", h.Version, formatVersion)
	}
	if err := h.Shard.Validate(); err != nil {
		return nil, err
	}
	if h.Points < 0 {
		return nil, fmt.Errorf("shard: negative point count %d", h.Points)
	}
	if h.Owned != nil {
		if err := dse.CheckPoints(h.Owned, h.Points); err != nil {
			return nil, fmt.Errorf("shard: owned %w", err)
		}
	}
	s := &Salvaged{
		Spec:        h.Space,
		Fingerprint: h.Fingerprint,
		SpacePoints: h.Points,
		Shard:       h.Shard,
		Version:     h.Version,
		Owned:       h.Owned,
		unit:        unit,
	}
	s.Stop = s.read(bufio.NewReader(io.MultiReader(dec.Buffered(), r)), h.Rows)
	s.Complete = s.Stop == nil
	return s, nil
}

// read consumes the row section, keeping the valid prefix, and returns why
// it ended (nil for a complete file). The writer emits rows in increasing
// owned order, so the prefix is exactly the rows matching the owned
// sequence positionally. Lines scanRow accepts are read by it; the first
// line it declines (the trailer, a torn or reformatted row) hands that
// line and the rest of the stream to encoding/json, which reads to the
// end. Both read the same rows, so where the handover falls changes no
// row, stop or error text.
func (s *Salvaged) read(br *bufio.Reader, headerRows int) error {
	for {
		text, err := br.ReadSlice('\n')
		var ln line
		if err == nil && scanRow(text, &ln) {
			if err := s.keep(ln); err != nil {
				return err
			}
			continue
		}
		if err == nil && len(bytes.TrimLeft(text, " \t\r\n")) == 0 {
			continue // a blank line holds no value
		}
		var rest io.Reader = br
		if err != nil && err != bufio.ErrBufferFull {
			rest = failedReader{err}
		}
		return s.decode(json.NewDecoder(io.MultiReader(bytes.NewReader(text), rest)), headerRows)
	}
}

// decode is read's encoding/json half: it reads the rest of the row
// section and the trailer.
func (s *Salvaged) decode(dec *json.Decoder, headerRows int) error {
	for {
		var ln line
		if err := dec.Decode(&ln); err == io.EOF {
			return fmt.Errorf("shard: shard %s: truncated file (no trailer after %d rows)", s.Shard, len(s.rows))
		} else if err != nil {
			return fmt.Errorf("shard: shard %s: bad row %d: %w", s.Shard, len(s.rows), err)
		}
		if ln.EOF {
			return s.trailer(dec, ln, headerRows)
		}
		if err := s.keep(ln); err != nil {
			return err
		}
	}
}

// keep checks one row and appends it to the prefix.
func (s *Salvaged) keep(ln line) error {
	if ln.Index == nil {
		return fmt.Errorf("shard: shard %s: row %d has no point index", s.Shard, len(s.rows))
	}
	if (ln.Design == nil) == (ln.Error == "") {
		return fmt.Errorf("shard: shard %s: point %d needs exactly one of design or error", s.Shard, *ln.Index)
	}
	if g, want := *ln.Index, s.owned(len(s.rows)); g != want {
		return s.misplaced(g, want)
	}
	s.rows = append(s.rows, ln)
	return nil
}

// failedReader is the rest of a stream whose read failed: the same error
// on every call, as the reader gave it.
type failedReader struct{ err error }

func (f failedReader) Read([]byte) (int, error) { return 0, f.err }

// trailer checks the trailer line against the rows read and the header,
// then requires the end of the file; a consistent trailer's stats become
// the file's.
func (s *Salvaged) trailer(dec *json.Decoder, ln line, headerRows int) error {
	n := len(s.rows)
	if ln.Rows != n {
		return fmt.Errorf("shard: shard %s: trailer says %d rows, file has %d", s.Shard, ln.Rows, n)
	}
	var extra line
	if err := dec.Decode(&extra); err == nil {
		return fmt.Errorf("shard: shard %s: data after trailer", s.Shard)
	} else if err != io.EOF {
		return fmt.Errorf("shard: shard %s: bad row %d: %w", s.Shard, n, err)
	}
	if headerRows != n {
		return fmt.Errorf("shard: shard %s: header says %d rows, file has %d", s.Shard, headerRows, n)
	}
	if g := s.owned(n); g >= 0 {
		return fmt.Errorf("shard: shard %s: no row for owned point %d", s.Shard, g)
	}
	s.UniqueSims = ln.UniqueSims
	if ln.Cache != nil {
		s.Cache = *ln.Cache
	}
	if ln.Obs != nil {
		s.Obs = *ln.Obs
	}
	return nil
}

// owned returns the k-th point index (from 0) the file's writer owned, or
// -1 past the last: a task file's list by position, a shard's units by
// arithmetic that cannot overflow (dse.ShardPoint).
func (s *Salvaged) owned(k int) int {
	if s.Owned != nil {
		if k < len(s.Owned) {
			return s.Owned[k]
		}
		return -1
	}
	return dse.ShardPoint(k, s.Shard.Index, s.Shard.Count, s.SpacePoints, s.unit)
}

// misplaced explains a row for point g where the owned sequence wants
// point want (-1: every owned point already has its row).
func (s *Salvaged) misplaced(g, want int) error {
	owns := g < s.SpacePoints && s.Shard.Owns(g, s.unit)
	if s.Owned != nil {
		_, owns = slices.BinarySearch(s.Owned, g)
	}
	switch {
	case !owns:
		return fmt.Errorf("shard: shard %s: row for point %d it does not own", s.Shard, g)
	case want < 0 || g < want:
		return fmt.Errorf("shard: duplicate row for point %d", g)
	}
	return fmt.Errorf("shard: shard %s: row for point %d out of order (want point %d)", s.Shard, g, want)
}

// SalvageFile is Salvage over a file on disk.
func SalvageFile(path string) (*Salvaged, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := Salvage(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Assembler reassembles one exploration from any mix of complete and
// salvaged pieces, in any order, across however many recovery rounds the
// fleet needed. Salvage already confined every row to its file's owned
// points; the Assembler adds the cross-file invariants as pieces arrive —
// one space fingerprint, every point at most once — and cross-checks
// duplicate rows for equality, so a buggy double-assignment (or a
// non-deterministic executor) surfaces as an error instead of silent
// last-writer-wins.
type Assembler struct {
	fp   string
	sp   dse.Space
	pts  []dse.Point
	rows []*line // by global index; nil until a piece covers the point
	left int

	sims  int
	cache simcache.Snapshot
	obs   obs.Snapshot
	dups  int
}

// NewAssembler builds an empty Assembler for the exploration the spec
// describes.
func NewAssembler(spec dse.SpaceSpec) (*Assembler, error) {
	sp, err := spec.Space()
	if err != nil {
		return nil, err
	}
	pts := sp.Points()
	return &Assembler{
		fp:   spec.Fingerprint(),
		sp:   sp,
		pts:  pts,
		rows: make([]*line, len(pts)),
		left: len(pts),
	}, nil
}

// Points returns the global space size.
func (a *Assembler) Points() int { return len(a.pts) }

// Remaining returns how many points still have no row.
func (a *Assembler) Remaining() int { return a.left }

// Duplicates returns how many equal re-deliveries of already-covered rows
// were absorbed (each verified equal, never overwritten).
func (a *Assembler) Duplicates() int { return a.dups }

// Missing returns the global indices still uncovered, increasing — what a
// resumed fleet run must still evaluate.
func (a *Assembler) Missing() []int {
	var m []int
	for g, ln := range a.rows {
		if ln == nil {
			m = append(m, g)
		}
	}
	return m
}

// ErrForeign marks a piece that belongs to a different exploration
// (fingerprint or space-size mismatch). A fleet resuming from a state
// directory skips such files (errors.Is) instead of failing the run —
// someone else's shard landing in the directory must not poison it.
var ErrForeign = errors.New("piece of a different exploration")

// MissingOf returns the subset of pts (strictly increasing global
// indices) still uncovered — the residual a fleet driver must requeue
// after absorbing an attempt. Out-of-range values are ignored.
func (a *Assembler) MissingOf(pts []int) []int {
	var m []int
	for _, g := range pts {
		if g >= 0 && g < len(a.rows) && a.rows[g] == nil {
			m = append(m, g)
		}
	}
	return m
}

// Absorb folds one salvaged piece in, returning how many previously
// missing points it covered. A piece from a different exploration
// (fingerprint or space size mismatch) is rejected with ErrForeign, as is
// a duplicate row whose content disagrees with what is already held —
// determinism makes re-evaluated points byte-equal, so disagreement means
// corruption or a foreign file that happened to share a fingerprint.
func (a *Assembler) Absorb(s *Salvaged) (added int, err error) {
	if s == nil {
		return 0, fmt.Errorf("shard: absorb nil salvage")
	}
	if s.Fingerprint != a.fp {
		return 0, fmt.Errorf("shard: space fingerprint mismatch: %s vs %s: %w", s.Fingerprint, a.fp, ErrForeign)
	}
	if s.SpacePoints != len(a.pts) {
		return 0, fmt.Errorf("shard: piece declares %d points, space has %d: %w", s.SpacePoints, len(a.pts), ErrForeign)
	}
	for i := range s.rows {
		ln := &s.rows[i]
		g := *ln.Index // in range: Salvage kept only owned rows
		if held := a.rows[g]; held != nil {
			if !sameRow(held, ln) {
				return added, fmt.Errorf("shard: point %d re-delivered with different content (determinism violation or foreign row)", g)
			}
			a.dups++
			continue
		}
		a.rows[g] = ln
		a.left--
		added++
	}
	if s.Complete {
		a.sims += s.UniqueSims
		a.cache = a.cache.Add(s.Cache)
		a.obs = a.obs.Add(s.Obs)
	}
	return added, nil
}

// sameRow reports whether two recovered rows agree on their result
// content (index, metrics, error).
func sameRow(a, b *line) bool {
	if *a.Index != *b.Index || a.Error != b.Error {
		return false
	}
	if (a.Design == nil) != (b.Design == nil) {
		return false
	}
	return a.Design == nil || *a.Design == *b.Design
}

// ResultSet returns the reassembled exploration; every point must be
// covered. UniqueSims/Cache/Obs are summed over the complete pieces only
// — a salvaged fragment's trailer never made it to disk, so its stats are
// lost with the executor that held them (the row data, which determines
// report bytes, is what salvage preserves).
func (a *Assembler) ResultSet() (*dse.ResultSet, error) {
	if a.left != 0 {
		miss := a.Missing()
		show := miss
		if len(show) > 8 {
			show = show[:8]
		}
		return nil, fmt.Errorf("shard: %d of %d points still uncovered (first missing: %v)", a.left, len(a.pts), show)
	}
	results := make([]dse.Result, len(a.pts))
	for g := range a.pts {
		results[g] = rowResult(a.pts[g], a.rows[g])
	}
	return &dse.ResultSet{Space: a.sp, Results: results, UniqueSims: a.sims, Cache: a.cache, Obs: a.obs}, nil
}
