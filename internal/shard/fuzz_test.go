package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/dse"
)

// maxFuzzMergePoints bounds the spaces the Merge half of FuzzSalvage
// rebuilds. Merge materializes the header spec's points, so a hostile
// but self-consistent spec (long budget and scheduler axes) could ask for
// millions; bounding a spec's size is a policy the reader does not make.
const maxFuzzMergePoints = 4096

// FuzzSalvage feeds arbitrary bytes to the one reader of shard and task
// files. Properties:
//
//   - no input panics, and none allocates by a header's claims (the
//     2^40-point seed would exhaust memory otherwise);
//   - Complete holds exactly when Stop is nil;
//   - the kept rows are the first k points the header owns, in order, and
//     a complete file keeps all of them;
//   - a single 0/1 file merges exactly when Salvage calls it complete and
//     not a task file (given a spec that resolves to the declared size and
//     fingerprint), and anything Salvage rejects, Merge rejects.
//
// The seeds are real version 2 shards in units of one and of two points,
// a version 1 shard as the CLI wrote it before units, a real task file, a
// whole-space shard, truncations of each, a reordered file, a
// foreign-fingerprint file, a version 2 header without a device axis and
// the 2^40-point headers of both versions.
func FuzzSalvage(f *testing.F) {
	sp := smallSpace()
	single := runShards(f, sp, 2)[1].Bytes()
	units := runShards(f, unitSpace(), 3)[1].Bytes()
	whole := runShards(f, sp, 1)[0].Bytes()
	v1, err := os.ReadFile("testdata/v1-stock-1-of-3.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	var task bytes.Buffer
	pts := []int{0, 2, 5}
	if _, err := (dse.Engine{}).ExploreSubsetStream(context.Background(), sp, pts, NewTaskWriter(&task, pts)); err != nil {
		f.Fatal(err)
	}
	for _, data := range [][]byte{single, units, v1, whole, task.Bytes()} {
		f.Add(data)
		for n := 0; n < len(data); n += max(1, len(data)/6) {
			f.Add(data[:n])
		}
	}
	noDevices := dse.Spec(unitSpace())
	noDevices.Devices = nil
	f.Add(append([]byte(headerLine(f, formatVersion, noDevices, Plan{Index: 1, Count: 3}, 16, 6)), units[bytes.IndexByte(units, '\n')+1:]...))
	lines := strings.SplitAfter(string(whole), "\n")
	lines[1], lines[2] = lines[2], lines[1]
	f.Add([]byte(strings.Join(lines, "")))
	fp := dse.Spec(sp).Fingerprint()
	f.Add(bytes.Replace(whole, []byte(fp), []byte(strings.Repeat("0", len(fp))), 1))
	f.Add([]byte(hugeHeader(f, 1)))
	f.Add([]byte(hugeHeader(f, formatVersion)))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Salvage(bytes.NewReader(data))
		if err != nil {
			if _, merr := Merge(bytes.NewReader(data)); merr == nil {
				t.Fatalf("merge accepted a file salvage rejects (%v)", err)
			}
			return
		}
		if s.Complete != (s.Stop == nil) {
			t.Fatalf("complete %v with stop %v", s.Complete, s.Stop)
		}
		checkOwnedPrefix(t, s)
		if s.Shard != (Plan{Index: 0, Count: 1}) {
			return
		}
		space, err := s.Spec.Space()
		if err != nil || space.Size() > maxFuzzMergePoints {
			return
		}
		want := s.Complete && s.Owned == nil && space.Size() == s.SpacePoints && s.Spec.Fingerprint() == s.Fingerprint
		rs, err := Merge(bytes.NewReader(data))
		if (err == nil) != want {
			t.Fatalf("merge err = %v; salvage complete=%v task=%v stop=%v", err, s.Complete, s.Owned != nil, s.Stop)
		}
		if err == nil && len(rs.Results) != s.Rows() {
			t.Fatalf("merged %d results from %d rows", len(rs.Results), s.Rows())
		}
	})
}

// checkOwnedPrefix checks the kept rows against the header's ownership
// rule, recomputed here without Salvaged.owned: row k must be the k-th
// point of the shard's units (units of one point on version 1, of the
// header spec's |Devices|·|Scheds| on version 2), and a complete file
// must hold every owned point.
func checkOwnedPrefix(t *testing.T, s *Salvaged) {
	t.Helper()
	p := s.Shard
	unit := 1
	if s.Version == 2 {
		unit = len(s.Spec.Devices) * len(s.Spec.Scheds)
	}
	units := s.SpacePoints / unit // units holding a point, the last possibly partial
	if s.SpacePoints%unit != 0 {
		units++
	}
	for k, ln := range s.rows {
		if ln.Index == nil || (ln.Design == nil) == (ln.Error == "") {
			t.Fatalf("kept malformed row %d", k)
		}
		g := *ln.Index
		if s.Owned != nil {
			if g != s.Owned[k] {
				t.Fatalf("row %d is point %d, want owned[%d] = %d", k, g, k, s.Owned[k])
			}
			continue
		}
		u := g / unit
		below := 0 // owned units before u
		if u > p.Index {
			below = (u-1-p.Index)/p.Count + 1
		}
		if g < 0 || g >= s.SpacePoints || u%p.Count != p.Index || below*unit+g%unit != k {
			t.Fatalf("row %d is point %d, not the %d-th point of shard %s over %d points in units of %d", k, g, k, p, s.SpacePoints, unit)
		}
	}
	if !s.Complete {
		return
	}
	n := len(s.rows)
	if s.Owned != nil {
		if n != len(s.Owned) {
			t.Fatalf("complete task file kept %d of %d owned rows", n, len(s.Owned))
		}
		return
	}
	if n == 0 {
		if p.Index < units {
			t.Fatalf("complete shard %s of %d points in units of %d kept no rows", p, s.SpacePoints, unit)
		}
		return
	}
	g := *s.rows[n-1].Index
	if (g+1)%unit != 0 && g+1 < s.SpacePoints || (g+1)%unit == 0 && p.Count < units-g/unit {
		t.Fatalf("complete shard %s of %d points in units of %d stops at point %d", p, s.SpacePoints, unit, g)
	}
}

// FuzzRowCodec holds the row codec to encoding/json. Properties:
//
//   - on raw bytes: whenever scanRow accepts a line, json.Unmarshal of
//     that line gives the same line, floats equal bit for bit;
//   - on an index, the eight metric values, an algorithm and an error
//     message: appendRow's design row and error row are byte for byte
//     what json.Encoder writes for the same line, a NaN or infinite
//     metric fails both with the same error text and appends nothing, and
//     scanRow reads the row back whenever its strings need no escape.
//
// The seeds are every row of testdata/rows.golden (stock, portfolio and
// error rows), with strings holding '<', U+2028 and invalid UTF-8 (which
// json.Encoder writes as \u003c, \u2028 and \ufffd) and the values -0,
// 1e-7, 1e21, 5e-324, NaN and +Inf.
func FuzzRowCodec(f *testing.F) {
	golden, err := os.ReadFile("testdata/rows.golden")
	if err != nil {
		f.Fatal(err)
	}
	for _, text := range bytes.SplitAfter(golden, []byte("\n")) {
		var ln line
		if json.Unmarshal(text, &ln) != nil || ln.Index == nil {
			continue // a header
		}
		m := dse.Metrics{Algorithm: "CPA-RA"}
		if ln.Design != nil {
			m = *ln.Design
		}
		f.Add(text, *ln.Index, m.Registers, m.Cycles, m.MemCycles, m.ClockNs, m.TimeUs, m.Slices, m.SliceUtil, m.RAMs, m.Algorithm, ln.Error)
	}
	for _, s := range []string{"a<b>&c", "line\u2028separator", "bad \xff byte"} {
		f.Add([]byte(`{"index":1,"error":"`+s+`"}`), 1, 1, 2, 3, 4.5, 6.5, 7, 8.5, 9, s, s)
	}
	for _, v := range []float64{math.Copysign(0, -1), 1e-7, 1e21, 5e-324, math.NaN(), math.Inf(1)} {
		row := fmt.Sprintf(`{"index":0,"design":{"registers":1,"cycles":2,"tmem":3,"clock_ns":%v,"time_us":%v,"slices":4,"slice_util_pct":%v,"brams":5}}`, v, v, v)
		f.Add([]byte(row), 0, 1, 2, 3, v, v, 4, v, 5, "", "no design")
	}

	f.Fuzz(func(t *testing.T, raw []byte, index, registers, cycles, tmem int, clockNs, timeUs float64, slices int, util float64, brams int, algorithm, msg string) {
		var got line
		if scanRow(raw, &got) {
			var want line
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatalf("scanner accepted %q, json.Unmarshal rejects it: %v", raw, err)
			}
			if !sameLine(&got, &want) {
				t.Fatalf("scanner read %q as %+v, json.Unmarshal as %+v", raw, got, want)
			}
		}

		m := dse.Metrics{Algorithm: algorithm, Registers: registers, Cycles: cycles, MemCycles: tmem,
			ClockNs: clockNs, TimeUs: timeUs, Slices: slices, SliceUtil: util, RAMs: brams}
		checkRow(t, line{Index: &index, Design: &m}, "x")
		if msg != "" { // the writer never writes an empty error
			checkRow(t, line{Index: &index, Error: msg}, "x")
		}
	})
}

// checkRow holds appendRow's encoding of ln to json.Encoder's, and the
// scanner to reading it back. The row is appended after prefix, which
// must stay as it was.
func checkRow(t *testing.T, ln line, prefix string) {
	t.Helper()
	var want bytes.Buffer
	werr := json.NewEncoder(&want).Encode(ln)
	got, gerr := appendRow([]byte(prefix), *ln.Index, ln.Design, ln.Error)
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("appendRow error %v, json.Encoder error %v", gerr, werr)
	}
	if string(got[:len(prefix)]) != prefix {
		t.Fatalf("appendRow overwrote its prefix: %q", got)
	}
	if got = got[len(prefix):]; gerr != nil {
		if len(got) != 0 {
			t.Fatalf("failed appendRow appended %q", got)
		}
		return
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("appendRow wrote\n%q\njson.Encoder wrote\n%q", got, want.Bytes())
	}
	var back line
	if !scanRow(got, &back) {
		if plain(ln.Error) && (ln.Design == nil || plain(ln.Design.Algorithm)) {
			t.Fatalf("scanner declined the writer's row %q", got)
		}
		return
	}
	if !sameLine(&back, &ln) {
		t.Fatalf("scanner read the writer's row %q as %+v", got, back)
	}
}

// plain reports a string the scanner reads: printable ASCII without '"',
// '\' or a character json.Encoder escapes for HTML.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || strings.IndexByte(`"\<>&`, c) >= 0 {
			return false
		}
	}
	return true
}

// sameLine compares two rows field by field, floats bit for bit; a
// trailer field set on either fails the comparison.
func sameLine(a, b *line) bool {
	row := func(l *line) bool {
		return l.Index != nil && !l.EOF && l.Rows == 0 && l.UniqueSims == 0 && l.Cache == nil && l.Obs == nil
	}
	return row(a) && row(b) && sameRow(a, b) && sameFloats(a, b)
}
