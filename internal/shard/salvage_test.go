package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/dse"
)

// salvageBytes salvages a byte slice, failing the test on error.
func salvageBytes(t *testing.T, b []byte) *Salvaged {
	t.Helper()
	s, err := Salvage(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("salvage: %v", err)
	}
	return s
}

// TestSalvageCompleteFileAgreesWithMerge: a complete single-shard file
// salvages in full — every row, no stop, stats carried.
func TestSalvageCompleteFileAgreesWithMerge(t *testing.T) {
	sp := smallSpace()
	bufs := runShards(t, sp, 1)
	s := salvageBytes(t, bufs[0].Bytes())
	if !s.Complete || s.Stop != nil {
		t.Fatalf("complete file salvaged as incomplete: %v", s.Stop)
	}
	rs, err := Merge(bytes.NewReader(bufs[0].Bytes()))
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if s.Rows() != len(rs.Results) || s.UniqueSims != rs.UniqueSims {
		t.Fatalf("salvage rows/sims = %d/%d, merge = %d/%d", s.Rows(), s.UniqueSims, len(rs.Results), rs.UniqueSims)
	}
}

// TestSalvageEveryTruncationPoint: for every byte-level truncation of a
// shard file, Salvage recovers a prefix of the owned points in order and
// reports why it stopped. This is the property the fleet's crash recovery
// rests on: no truncation loses coverage or double-counts.
func TestSalvageEveryTruncationPoint(t *testing.T) {
	sp := smallSpace()
	bufs := runShards(t, sp, 2)
	full := bufs[1].Bytes()
	owned := []int{1, 3, 5, 7} // shard 1/2 of 8 points
	// A header-only prefix must still salvage (zero rows); find the end of
	// the header line first.
	hdrEnd := bytes.IndexByte(full, '\n') + 1
	for cut := hdrEnd; cut <= len(full); cut++ {
		s, err := Salvage(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if s.Rows() > len(owned) {
			t.Fatalf("cut at %d: %d rows from %d owned points", cut, s.Rows(), len(owned))
		}
		for k, ln := range s.rows {
			if *ln.Index != owned[k] {
				t.Fatalf("cut at %d: row %d is point %d, want %d", cut, k, *ln.Index, owned[k])
			}
		}
		if s.Complete != (s.Stop == nil) {
			t.Fatalf("cut at %d: complete %v with stop %v", cut, s.Complete, s.Stop)
		}
		if s.Complete && cut < len(full)-1 {
			t.Fatalf("cut at %d marked complete (file is %d bytes)", cut, len(full))
		}
	}
	// Truncating before the header ends is unsalvageable — and says so.
	if _, err := Salvage(bytes.NewReader(full[:hdrEnd/2])); err == nil {
		t.Fatalf("torn header salvaged successfully")
	}
}

// TestSalvageHugeHeaderClaims: a ~300-byte header claiming 2^40 points and
// rows must cost nothing in proportion to the claim, in either version.
// Salvage returns the (empty) prefix with a stop, and strict Merge
// rejects the file.
func TestSalvageHugeHeaderClaims(t *testing.T) {
	for _, version := range []int{1, formatVersion} {
		for _, rest := range []string{"", `{"eof":true,"rows":0}` + "\n"} {
			data := hugeHeader(t, version) + rest
			s := salvageBytes(t, []byte(data))
			if s.Complete || s.Stop == nil || s.Rows() != 0 {
				t.Fatalf("version %d huge header salvaged as complete=%v rows=%d stop=%v", version, s.Complete, s.Rows(), s.Stop)
			}
			if _, err := Merge(strings.NewReader(data)); err == nil {
				t.Fatalf("merge accepted a version %d header claiming 2^40 rows", version)
			}
		}
	}
}

// TestMergeRefusesOversizedSpace: a shard file of about 330 KB whose spec
// describes 1e10 design points (6 kernels × 4 allocators × 150,001
// budgets × 2,778 devices) and whose header claims 0 points is complete
// with no rows, so Merge hands the spec to the Assembler, which would
// size the point list from it. The spec is refused there instead.
func TestMergeRefusesOversizedSpace(t *testing.T) {
	spec := dse.Spec(dse.DefaultSpace())
	spec.Budgets = make([]int, 150001)
	spec.Devices = slices.Repeat([]string{"XCV1000"}, 2778)
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	file := fmt.Sprintf(`{"format":"repro-dse-shard","version":1,"fingerprint":%q,"shard":{"index":0,"count":1},"points":0,"rows":0,"space":%s}`+"\n"+
		`{"eof":true}`+"\n", spec.Fingerprint(), data)
	if s := salvageBytes(t, []byte(file)); !s.Complete {
		t.Fatalf("file did not salvage complete: %v", s.Stop)
	}
	if _, err := Merge(strings.NewReader(file)); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("merge of a 1e10-point space: err %v", err)
	}
}

// hugeHeader is a shard header of the small space claiming 2^40 points
// and rows.
func hugeHeader(t testing.TB, version int) string {
	spec, err := json.Marshal(dse.Spec(smallSpace()))
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(`{"format":"repro-dse-shard","version":%d,"fingerprint":"x","shard":{"index":0,"count":1},"points":%d,"rows":%d,"space":%s}`+"\n",
		version, 1<<40, 1<<40, spec)
}

// TestSalvageCorruptMidFile: flipping a row's JSON into garbage ends the
// valid prefix there; rows before it are kept, everything from the bad
// row on is residual.
func TestSalvageCorruptMidFile(t *testing.T) {
	sp := smallSpace()
	bufs := runShards(t, sp, 2)
	lines := bytes.SplitAfter(bufs[0].Bytes(), []byte("\n"))
	// lines: header, rows..., trailer, "". Corrupt the third row.
	corrupt := bytes.Join([][]byte{lines[0], lines[1], lines[2], []byte("{\"index\": BOOM\n")}, nil)
	s := salvageBytes(t, corrupt)
	if s.Rows() != 2 || s.Complete {
		t.Fatalf("rows = %d (complete %v), want 2 incomplete", s.Rows(), s.Complete)
	}
}

// TestAssemblerReassemblesSalvagedPieces is the end-to-end recovery
// property: truncate one shard, absorb its salvage plus a task-file
// re-run of the residual plus the other complete shard, and the
// reassembled output must be byte-identical to the single-process run.
func TestAssemblerReassemblesSalvagedPieces(t *testing.T) {
	sp := smallSpace()
	engine := dse.Engine{}
	want := render(t, mustExploreRS(t, engine, sp))

	bufs := runShards(t, sp, 2)
	// Truncate shard 1 to lose roughly half its rows.
	cut := bufs[1].Len() * 2 / 3
	s1 := salvageBytes(t, bufs[1].Bytes()[:cut])

	a, err := NewAssembler(s1.Spec)
	if err != nil {
		t.Fatalf("assembler: %v", err)
	}
	if _, err := a.Absorb(salvageBytes(t, bufs[0].Bytes())); err != nil {
		t.Fatalf("absorb shard 0: %v", err)
	}
	if _, err := a.Absorb(s1); err != nil {
		t.Fatalf("absorb salvaged shard 1: %v", err)
	}
	// The residual is what the fleet asks the Assembler for.
	residual := a.MissingOf([]int{1, 3, 5, 7})
	if len(residual) == 0 || s1.Rows() == 0 || s1.Rows()+len(residual) != 4 {
		t.Fatalf("truncation produced no interesting split: rows %d residual %v", s1.Rows(), residual)
	}
	if a.Remaining() == 0 {
		t.Fatalf("assembler complete before the residual ran")
	}
	// Re-run the residual as an explicit-point task, as the fleet would.
	var task bytes.Buffer
	if _, err := engine.ExploreSubsetStream(context.Background(), sp, residual, NewTaskWriter(&task, residual)); err != nil {
		t.Fatalf("residual run: %v", err)
	}
	st := salvageBytes(t, task.Bytes())
	if !st.Complete || st.Rows() != len(residual) {
		t.Fatalf("task salvage: complete %v rows %d, want complete %d", st.Complete, st.Rows(), len(residual))
	}
	if _, err := a.Absorb(st); err != nil {
		t.Fatalf("absorb task: %v", err)
	}
	if a.Remaining() != 0 {
		t.Fatalf("assembler incomplete after all pieces: missing %v", a.Missing())
	}
	rs, err := a.ResultSet()
	if err != nil {
		t.Fatalf("result set: %v", err)
	}
	got := render(t, rs)
	for i, name := range [3]string{"table", "csv", "json"} {
		if got[i] != want[i] {
			t.Errorf("%s output differs after salvage+reassembly", name)
		}
	}
}

// TestAssemblerDuplicateRows: equal re-delivery is absorbed and counted;
// conflicting re-delivery is an error.
func TestAssemblerDuplicateRows(t *testing.T) {
	sp := smallSpace()
	bufs := runShards(t, sp, 1)
	s := salvageBytes(t, bufs[0].Bytes())
	a, err := NewAssembler(s.Spec)
	if err != nil {
		t.Fatalf("assembler: %v", err)
	}
	if n, err := a.Absorb(s); err != nil || n != a.Points() {
		t.Fatalf("first absorb: %d, %v", n, err)
	}
	if n, err := a.Absorb(s); err != nil || n != 0 {
		t.Fatalf("re-absorb: %d, %v (want 0, nil)", n, err)
	}
	if a.Duplicates() != a.Points() {
		t.Fatalf("duplicates = %d, want %d", a.Duplicates(), a.Points())
	}
	// Conflicting content: change a metric in a copy and re-absorb. (Find
	// a design row — error rows carry no metrics struct to perturb.)
	evil := salvageBytes(t, bufs[0].Bytes())
	perturbed := false
	for i := range evil.rows {
		if evil.rows[i].Design != nil {
			evil.rows[i].Design.Registers++
			perturbed = true
			break
		}
	}
	if !perturbed {
		t.Fatalf("no design row to perturb")
	}
	if _, err := a.Absorb(evil); err == nil || !strings.Contains(err.Error(), "different content") {
		t.Fatalf("conflicting row absorbed: %v", err)
	}
}

// TestAssemblerRejectsForeignPiece: a piece from another exploration is
// refused by fingerprint.
func TestAssemblerRejectsForeignPiece(t *testing.T) {
	a1 := runShards(t, smallSpace(), 1)
	other := smallSpace()
	other.Budgets = []int{64}
	a2 := runShards(t, other, 1)
	s1, s2 := salvageBytes(t, a1[0].Bytes()), salvageBytes(t, a2[0].Bytes())
	a, err := NewAssembler(s1.Spec)
	if err != nil {
		t.Fatalf("assembler: %v", err)
	}
	if _, err := a.Absorb(s2); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("foreign piece absorbed: %v", err)
	}
}

// TestMergeRejectsTaskFiles: strict Merge does not understand explicit
// ownership; the fleet Assembler is the only reassembly path for tasks.
func TestMergeRejectsTaskFiles(t *testing.T) {
	sp := smallSpace()
	var task bytes.Buffer
	pts := []int{0, 1, 2}
	if _, err := (dse.Engine{}).ExploreSubsetStream(context.Background(), sp, pts, NewTaskWriter(&task, pts)); err != nil {
		t.Fatalf("task run: %v", err)
	}
	if _, err := Merge(bytes.NewReader(task.Bytes())); err == nil || !strings.Contains(err.Error(), "task file") {
		t.Fatalf("merge accepted a task file: %v", err)
	}
}

// mustExploreRS explores the space single-process.
func mustExploreRS(t *testing.T, e dse.Engine, sp dse.Space) *dse.ResultSet {
	t.Helper()
	rs, err := e.Explore(sp)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	return rs
}
