package shard

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/fpga"
	"repro/internal/kernels"
)

func TestParsePlan(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Plan
	}{
		{"0/3", Plan{0, 3}},
		{"2/3", Plan{2, 3}},
		{" 1 / 2 ", Plan{1, 2}},
		{"0/1", Plan{0, 1}},
	} {
		p, err := ParsePlan(tc.in)
		if err != nil || p != tc.want {
			t.Errorf("ParsePlan(%q) = %v, %v; want %v", tc.in, p, err, tc.want)
		}
	}
	for _, bad := range []string{"", "3", "3/3", "-1/2", "x/y", "1/0", "0/-1", "1/2/3"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

func TestPlanOwnsAndSize(t *testing.T) {
	for _, total := range []int{0, 1, 7, 16, 192} {
		for _, unit := range []int{1, 2, 3, 12} {
			for _, count := range []int{1, 2, 3, 5, 8} {
				covered := 0
				for i := 0; i < count; i++ {
					p := Plan{Index: i, Count: count}
					owned := 0
					for g := 0; g < total; g++ {
						if p.Owns(g, unit) {
							if dse.ShardPoint(owned, i, count, total, unit) != g {
								t.Errorf("Plan %s over %d points in units of %d owns %d, not its owned point %d", p, total, unit, g, owned)
							}
							owned++
						}
					}
					if owned != p.Size(total, unit) {
						t.Errorf("Plan %s over %d points in units of %d: owns %d, Size says %d", p, total, unit, owned, p.Size(total, unit))
					}
					covered += owned
				}
				if covered != total {
					t.Errorf("%d shards over %d points in units of %d cover %d", count, total, unit, covered)
				}
			}
		}
	}
}

// smallSpace is a fast space with error rows (budget 3 is infeasible for
// figure1's five references) so the encoding's error path is exercised.
// Its axes are all given, so dse.Spec of it is the spec its shard files
// carry; one device and one sched variant make its units single points.
func smallSpace() dse.Space {
	return dse.Space{
		Kernels:    []kernels.Kernel{kernels.Figure1(), kernels.FIR()},
		Allocators: []core.Allocator{core.FRRA{}, core.CPARA{}},
		Budgets:    []int{3, 64},
		Devices:    []fpga.Device{fpga.XCV1000()},
		Scheds:     []dse.SchedVariant{dse.DefaultSchedVariant()},
	}
}

// render renders a result set through all three reporters.
func render(t *testing.T, rs *dse.ResultSet) [3]string {
	t.Helper()
	var out [3]string
	for i, rep := range []dse.Reporter{
		dse.TableReporter{},
		dse.CSVReporter{Pareto: true},
		dse.JSONReporter{Indent: true},
	} {
		var buf bytes.Buffer
		if err := rep.Report(&buf, rs); err != nil {
			t.Fatalf("report: %v", err)
		}
		out[i] = buf.String()
	}
	return out
}

// runShards evaluates every shard of an n-way partition into buffers.
func runShards(t testing.TB, sp dse.Space, n int) []*bytes.Buffer {
	t.Helper()
	bufs := make([]*bytes.Buffer, n)
	for i := 0; i < n; i++ {
		bufs[i] = &bytes.Buffer{}
		if _, err := Run(dse.Engine{}, sp, Plan{Index: i, Count: n}, bufs[i]); err != nil {
			t.Fatalf("shard %d/%d: %v", i, n, err)
		}
	}
	return bufs
}

func mergeBufs(bufs []*bytes.Buffer) (*dse.ResultSet, error) {
	readers := make([]io.Reader, len(bufs))
	for i, b := range bufs {
		readers[i] = bytes.NewReader(b.Bytes())
	}
	return Merge(readers...)
}

// TestShardMergeGoldenStockSpace is the determinism contract of the whole
// subsystem: for the stock 192-point space, every shard count in
// {1,2,3,5,8} must merge to reporter output byte-identical to the
// single-process run.
func TestShardMergeGoldenStockSpace(t *testing.T) {
	sp := dse.DefaultSpace()
	single, err := dse.Engine{}.Explore(sp)
	if err != nil {
		t.Fatal(err)
	}
	want := render(t, single)
	for _, n := range []int{1, 2, 3, 5, 8} {
		rs, err := mergeBufs(runShards(t, sp, n))
		if err != nil {
			t.Fatalf("merge %d shards: %v", n, err)
		}
		if len(rs.Results) != len(single.Results) {
			t.Fatalf("%d shards merged to %d results, want %d", n, len(rs.Results), len(single.Results))
		}
		if rs.UniqueSims == 0 {
			t.Errorf("%d shards: merged UniqueSims = 0", n)
		}
		got := render(t, rs)
		for i, name := range []string{"table", "CSV", "JSON"} {
			if got[i] != want[i] {
				t.Errorf("%d shards: merged %s output differs from single-process run", n, name)
			}
		}
	}
}

// TestShardMergeErrorRows checks per-point errors survive the round trip.
func TestShardMergeErrorRows(t *testing.T) {
	sp := smallSpace()
	single, err := dse.Engine{}.Explore(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(single.Failed()) == 0 {
		t.Fatal("small space produced no error rows; test space needs an infeasible budget")
	}
	rs, err := mergeBufs(runShards(t, sp, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := render(t, rs), render(t, single); got != want {
		t.Error("merged output with error rows differs from single-process run")
	}
	if len(rs.Failed()) != len(single.Failed()) {
		t.Errorf("merged set has %d failures, want %d", len(rs.Failed()), len(single.Failed()))
	}
}

// TestShardCountExceedingKernelBlocks: with more shards than points some
// shards own nothing — the encoding and merge must still reassemble.
func TestShardCountExceedingKernelBlocks(t *testing.T) {
	sp := dse.Space{
		Kernels:    []kernels.Kernel{kernels.Figure1(), kernels.FIR()},
		Allocators: []core.Allocator{core.FRRA{}},
		Budgets:    []int{64},
	} // 2 points
	single, err := dse.Engine{}.Explore(sp)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := mergeBufs(runShards(t, sp, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := render(t, rs), render(t, single); got != want {
		t.Error("3 shards of a 2-point space merged to different output")
	}
}

func expectMergeError(t *testing.T, bufs []*bytes.Buffer, wantSub string) {
	t.Helper()
	_, err := mergeBufs(bufs)
	if err == nil {
		t.Fatalf("merge accepted, want error containing %q", wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Errorf("merge error %q does not contain %q", err, wantSub)
	}
}

func TestMergeDetectsMissingShard(t *testing.T) {
	bufs := runShards(t, smallSpace(), 3)
	expectMergeError(t, bufs[:2], "missing shard 2/3")
}

func TestMergeDetectsDuplicateShard(t *testing.T) {
	bufs := runShards(t, smallSpace(), 3)
	dup := []*bytes.Buffer{bufs[0], bufs[1], bufs[1]}
	expectMergeError(t, dup, "duplicate shard")
}

func TestMergeDetectsFingerprintMismatch(t *testing.T) {
	a := runShards(t, smallSpace(), 2)
	other := smallSpace()
	other.Budgets = []int{4, 64} // different space, same shape
	b := runShards(t, other, 2)
	expectMergeError(t, []*bytes.Buffer{a[0], b[1]}, "fingerprint mismatch")
}

func TestMergeDetectsTruncatedFile(t *testing.T) {
	bufs := runShards(t, smallSpace(), 2)
	// Drop the trailer (last line) of shard 1: a worker that died mid-run.
	data := bufs[1].Bytes()
	data = data[:len(data)-1] // strip final newline
	cut := bytes.LastIndexByte(data, '\n') + 1
	truncated := []*bytes.Buffer{bufs[0], bytes.NewBuffer(data[:cut])}
	expectMergeError(t, truncated, "truncated")
}

func TestMergeDetectsForeignRow(t *testing.T) {
	bufs := runShards(t, smallSpace(), 2)
	// Rewrite one of shard 1's rows to an index shard 1 does not own
	// (index 3 only occurs as a row; the header holds the shard coords).
	s := bufs[1].String()
	s = strings.Replace(s, `{"index":3,`, `{"index":2,`, 1)
	expectMergeError(t, []*bytes.Buffer{bufs[0], bytes.NewBufferString(s)}, "does not own")
}

// editLines applies edit to the lines of a shard file (header first,
// trailer last) and returns the rejoined file.
func editLines(b *bytes.Buffer, edit func(lines []string) []string) *bytes.Buffer {
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	return bytes.NewBufferString(strings.Join(edit(lines), "\n") + "\n")
}

// TestMergeRejectsInconsistentFiles: every per-file rejection the strict
// front makes through Salvage's Stop, one case each.
func TestMergeRejectsInconsistentFiles(t *testing.T) {
	bufs := runShards(t, smallSpace(), 2)
	for _, tc := range []struct {
		name string
		edit func(lines []string) []string
		want string
	}{
		{"torn row", func(l []string) []string {
			l[2] = l[2][:len(l[2])/2]
			return l
		}, "shard 1/2: bad row 1"},
		{"row without index", func(l []string) []string {
			l[1] = strings.Replace(l[1], `"index":1,`, ``, 1)
			return l
		}, "row 0 has no point index"},
		{"row with design and error", func(l []string) []string {
			l[1] = strings.Replace(l[1], `{"index":1,`, `{"index":1,"error":"x",`, 1)
			return l
		}, "needs exactly one of design or error"},
		{"header row count", func(l []string) []string {
			l[0] = strings.Replace(l[0], `"rows":4,`, `"rows":5,`, 1)
			return l
		}, "header says 5 rows, file has 4"},
		{"trailer row count", func(l []string) []string {
			n := len(l) - 1
			l[n] = strings.Replace(l[n], `"rows":4`, `"rows":3`, 1)
			return l
		}, "trailer says 3 rows, file has 4"},
		{"data after trailer", func(l []string) []string {
			return append(l, l[1])
		}, "data after trailer"},
		{"dropped row", func(l []string) []string {
			l[0] = strings.Replace(l[0], `"rows":4,`, `"rows":3,`, 1)
			n := len(l) - 1
			l[n] = strings.Replace(l[n], `"rows":4`, `"rows":3`, 1)
			return append(l[:2], l[3:]...)
		}, "row for point 5 out of order (want point 3)"},
		{"repeated row", func(l []string) []string {
			l[2] = l[1]
			return l
		}, "duplicate row for point 1"},
		{"out-of-range row", func(l []string) []string {
			l[1] = strings.Replace(l[1], `{"index":1,`, `{"index":99,`, 1)
			return l
		}, "row for point 99 it does not own"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			expectMergeError(t, []*bytes.Buffer{bufs[0], editLines(bufs[1], tc.edit)}, tc.want)
		})
	}
}

func TestMergeRejectsGarbage(t *testing.T) {
	if _, err := Merge(strings.NewReader("not a shard file\n")); err == nil {
		t.Error("garbage input accepted")
	}
	if _, err := Merge(strings.NewReader(`{"format":"something-else","version":1}` + "\n")); err == nil {
		t.Error("foreign format accepted")
	}
	if _, err := Merge(strings.NewReader(`{"format":"repro-dse-shard","version":99,"shard":{"index":0,"count":1}}` + "\n")); err == nil {
		t.Error("future version accepted")
	}
	if _, err := Merge(); err == nil {
		t.Error("empty merge accepted")
	}
}

// TestWriterIsStreamReporter pins the integration contract: the writer
// plugs into the engine's streaming entry point and the file carries
// exactly the owned rows.
func TestWriterIsStreamReporter(t *testing.T) {
	var _ dse.StreamReporter = (*Writer)(nil)
	sp := smallSpace()
	var buf bytes.Buffer
	st, err := Run(dse.Engine{Workers: 3}, sp, Plan{Index: 1, Count: 2}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := (Plan{Index: 1, Count: 2}).Size(8, 1)
	if st.Points != wantRows {
		t.Errorf("stream reported %d points, want %d", st.Points, wantRows)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != wantRows+2 { // header + rows + trailer
		t.Errorf("shard file has %d lines, want %d", lines, wantRows+2)
	}
	f := salvageBytes(t, buf.Bytes())
	if !f.Complete || f.SpacePoints != 8 || f.Rows() != wantRows {
		t.Errorf("salvaged complete=%v, %d points / %d rows, want complete 8 / %d (stop: %v)",
			f.Complete, f.SpacePoints, f.Rows(), wantRows, f.Stop)
	}
	for _, ln := range f.rows {
		if !f.Shard.Owns(*ln.Index, 1) {
			t.Errorf("row for point %d not owned by shard %s", *ln.Index, f.Shard)
		}
	}
}

// TestMergeUniqueSimsSummed: the merged count is the sum over shards (per
// shard caches are independent, so it may legitimately exceed the
// single-process count but never be less).
func TestMergeUniqueSimsSummed(t *testing.T) {
	sp := smallSpace()
	single, err := dse.Engine{}.Explore(sp)
	if err != nil {
		t.Fatal(err)
	}
	bufs := runShards(t, sp, 2)
	sum := 0
	for _, b := range bufs {
		sum += salvageBytes(t, b.Bytes()).UniqueSims
	}
	rs, err := mergeBufs(bufs)
	if err != nil {
		t.Fatal(err)
	}
	if rs.UniqueSims != sum {
		t.Errorf("merged UniqueSims = %d, want the shard sum %d", rs.UniqueSims, sum)
	}
	if rs.UniqueSims < single.UniqueSims {
		t.Errorf("merged UniqueSims %d below the single-process count %d", rs.UniqueSims, single.UniqueSims)
	}
}

func ExamplePlan_String() {
	fmt.Println(Plan{Index: 2, Count: 5})
	// Output: 2/5
}

// TestRunRejectsPortfolioAll: the shard encoding carries one design per
// point, so Run must refuse a portfolio-all space at any shard count
// rather than silently dropping the member diagnostic on encode.
func TestRunRejectsPortfolioAll(t *testing.T) {
	sp := dse.Space{Kernels: []kernels.Kernel{kernels.Figure1()}, Allocators: core.All(), PortfolioAll: true}
	for _, count := range []int{1, 2} {
		if _, err := Run(dse.Engine{}, sp, Plan{Index: 0, Count: count}, io.Discard); err == nil {
			t.Fatalf("Run accepted a portfolio-all space at shard count %d", count)
		}
	}
}
