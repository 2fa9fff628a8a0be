package shard

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/dse"
)

// goldenFile is one shard file as `dse -quiet [-portfolio] [-kernels k]
// [-budgets b] -shard i/n` writes it, on the CLI's default axes.
type goldenFile struct {
	kernels, budgets string
	portfolio        bool
	plan             Plan
}

// goldenFiles are the files testdata/rows.golden holds, header and rows
// without the trailer (which carries timings), in order: the stock
// space's three shards, a portfolio shard and a shard with error rows.
// The golden was generated by the CLI while json.Encoder still wrote
// every row, and generated again when shards moved to whole units and
// format version 2 (DESIGN.md §21): the headers' version and which rows
// each stock shard holds changed, no row's bytes did.
var goldenFiles = []goldenFile{
	{"", "16,32,64,128", false, Plan{0, 3}},
	{"", "16,32,64,128", false, Plan{1, 3}},
	{"", "16,32,64,128", false, Plan{2, 3}},
	{"", "16,32,64,128", true, Plan{0, 1}},
	{"figure1,fir", "3,64", false, Plan{0, 1}},
}

// write runs the shard and returns its file.
func (g goldenFile) write(t testing.TB) []byte {
	t.Helper()
	sp, err := dse.BuildSpace(g.kernels, "", g.budgets, "XCV1000,XC2V6000", "1", "1")
	if err != nil {
		t.Fatal(err)
	}
	sp.Portfolio = g.portfolio
	var buf bytes.Buffer
	if _, err := Run(dse.Engine{}, sp, g.plan, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withoutTrailer drops a complete file's last line.
func withoutTrailer(file []byte) []byte {
	return file[:bytes.LastIndexByte(file[:len(file)-1], '\n')+1]
}

// TestRowsGolden pins the bytes of every header and row the writer emits
// to what json.Encoder wrote for them.
func TestRowsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/rows.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, g := range goldenFiles {
		got = append(got, withoutTrailer(g.write(t))...)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.SplitAfter(string(got), "\n"), strings.SplitAfter(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("got %d lines, want %d", len(gl), len(wl))
}

// reformat rewrites the rows of a shard file from row k on, leaving the
// header, the rows before k and the trailer as they were.
type reformat struct {
	name string
	rows func(rows []string, k int) string // rows without their newlines
}

var reformats = []reformat{
	{"index key last", func(rows []string, k int) string {
		return mapRows(rows, k, func(r string) string {
			i := strings.IndexByte(r, ',')
			return "{" + r[i+1:len(r)-1] + "," + r[1:i] + "}"
		})
	}},
	{"spaces after commas and colons", func(rows []string, k int) string {
		return mapRows(rows, k, spaced)
	}},
	{"\\u escape in strings", func(rows []string, k int) string {
		return mapRows(rows, k, func(r string) string {
			for _, key := range []string{`"error":"`, `"algorithm":"`} {
				if i := strings.Index(r, key); i >= 0 {
					i += len(key)
					r = fmt.Sprintf(`%s\u%04x%s`, r[:i], r[i], r[i+1:])
				}
			}
			return r
		})
	}},
	{"CRLF line ends", func(rows []string, k int) string {
		return mapRows(rows, k, func(r string) string { return r + "\r" })
	}},
	{"a row over two lines", func(rows []string, k int) string {
		rows = append([]string(nil), rows...)
		i := strings.IndexByte(rows[k], ',')
		rows[k] = rows[k][:i+1] + "\n" + rows[k][i+1:]
		return strings.Join(rows, "\n") + "\n"
	}},
	{"two rows on one line", func(rows []string, k int) string {
		rows = append([]string(nil), rows...)
		if k+1 < len(rows) {
			rows[k] += " " + rows[k+1]
			rows = append(rows[:k+1], rows[k+2:]...)
		}
		return strings.Join(rows, "\n") + "\n"
	}},
	{"a row longer than the read buffer", func(rows []string, k int) string {
		rows = append([]string(nil), rows...)
		rows[k] += strings.Repeat(" ", 5000)
		return strings.Join(rows, "\n") + "\n"
	}},
}

func mapRows(rows []string, k int, f func(string) string) string {
	var b strings.Builder
	for i, r := range rows {
		if i >= k {
			r = f(r)
		}
		b.WriteString(r)
		b.WriteByte('\n')
	}
	return b.String()
}

// spaced puts a space after every comma and colon outside strings.
func spaced(r string) string {
	var b strings.Builder
	in := false
	for i := 0; i < len(r); i++ {
		c := r[i]
		b.WriteByte(c)
		switch {
		case in && c == '\\':
			i++
			b.WriteByte(r[i])
		case c == '"':
			in = !in
		case !in && (c == ',' || c == ':'):
			b.WriteByte(' ')
		}
	}
	return b.String()
}

// TestSalvageAcceptsReformattedRows: rows the scanner declines are read
// by encoding/json from that line on, so a file whose rows were
// rewritten into other valid JSON salvages to the same rows, Complete,
// Stop and stats as the file the writer wrote, wherever the rewriting
// starts.
func TestSalvageAcceptsReformattedRows(t *testing.T) {
	sp := smallSpace()
	sp.Portfolio = true
	files := map[string][]byte{
		"stock shard 1/3":         goldenFiles[1].write(t),
		"small portfolio 0/1":     runShards(t, sp, 1)[0].Bytes(),
		"small shard with errors": runShards(t, smallSpace(), 2)[0].Bytes(),
	}
	for name, file := range files {
		want := salvageBytes(t, file)
		crlf := bytes.ReplaceAll(file, []byte("\n"), []byte("\r\n"))
		if err := sameSalvage(salvageBytes(t, crlf), want); err != nil {
			t.Errorf("%s, CRLF line ends throughout: %v", name, err)
		}
		lines := strings.Split(strings.TrimSuffix(string(file), "\n"), "\n")
		header, rows, trailer := lines[0], lines[1:len(lines)-1], lines[len(lines)-1]
		for _, rf := range reformats {
			for _, k := range []int{0, 1, len(rows) - 1} {
				text := header + "\n" + rf.rows(rows, k) + trailer + "\n"
				if err := sameSalvage(salvageBytes(t, []byte(text)), want); err != nil {
					t.Errorf("%s, %s from row %d: %v", name, rf.name, k, err)
				}
			}
		}
	}
}

// sameSalvage compares what two salvages recovered.
func sameSalvage(got, want *Salvaged) error {
	if got.Rows() != want.Rows() {
		return fmt.Errorf("%d rows, want %d", got.Rows(), want.Rows())
	}
	for i := range got.rows {
		if !sameRow(&got.rows[i], &want.rows[i]) || !sameFloats(&got.rows[i], &want.rows[i]) {
			return fmt.Errorf("row %d differs", i)
		}
	}
	if got.Complete != want.Complete || fmt.Sprint(got.Stop) != fmt.Sprint(want.Stop) {
		return fmt.Errorf("complete %v stop %v, want %v %v", got.Complete, got.Stop, want.Complete, want.Stop)
	}
	if got.UniqueSims != want.UniqueSims || got.Cache != want.Cache {
		return fmt.Errorf("stats %d %v, want %d %v", got.UniqueSims, got.Cache, want.UniqueSims, want.Cache)
	}
	return nil
}

// sameFloats compares two rows' float metrics bit for bit (sameRow uses
// ==, which equates 0 and -0).
func sameFloats(a, b *line) bool {
	if a.Design == nil || b.Design == nil {
		return a.Design == b.Design
	}
	for _, f := range [][2]float64{
		{a.Design.ClockNs, b.Design.ClockNs},
		{a.Design.TimeUs, b.Design.TimeUs},
		{a.Design.SliceUtil, b.Design.SliceUtil},
	} {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			return false
		}
	}
	return true
}

// TestSalvageKeepsReadErrors: a read that fails mid-file ends the prefix
// with the reader's error, whichever half of Salvage meets it.
func TestSalvageKeepsReadErrors(t *testing.T) {
	file := runShards(t, smallSpace(), 1)[0].Bytes()
	boom := errors.New("boom")
	for _, cut := range []int{bytes.IndexByte(file, '\n') + 1, len(withoutTrailer(file)) - 7, len(file) - 3} {
		s, err := Salvage(io.MultiReader(bytes.NewReader(file[:cut]), iotest.ErrReader(boom)))
		if err != nil {
			t.Fatal(err)
		}
		if !errors.Is(s.Stop, boom) || !strings.Contains(s.Stop.Error(), fmt.Sprintf("bad row %d: boom", s.Rows())) {
			t.Errorf("cut at %d: stop %v, want bad row %d: boom", cut, s.Stop, s.Rows())
		}
	}
}

// TestRowCodecAllocs pins the codec's allocations: writing a design row
// allocates nothing once the writer's buffer has grown, and scanning one
// allocates its index and its metrics.
func TestRowCodecAllocs(t *testing.T) {
	rs := mustExploreRS(t, dse.Engine{}, smallSpace())
	var r dse.Result
	for _, r = range rs.Results {
		if r.Ok() {
			break
		}
	}
	w := NewWriter(io.Discard, Plan{Index: 0, Count: 1})
	if err := w.Point(r); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = w.Point(r) }); allocs != 0 {
		t.Errorf("writing a design row: %v allocs, want 0", allocs)
	}
	row := append([]byte(nil), w.buf...)
	if allocs := testing.AllocsPerRun(100, func() {
		var ln line
		if !scanRow(row, &ln) {
			t.Fatalf("scanner declined the writer's row %q", row)
		}
	}); allocs > 2 {
		t.Errorf("scanning a design row: %v allocs, want at most 2", allocs)
	}
}
