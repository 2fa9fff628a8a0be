package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/golden"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/simcache"
)

// masks blank what changes from run to run in what dse prints: wall
// times and stage-time histograms in shard trailers and metrics
// documents, and the stats lines' wall time and slowest stages. Stage
// names and counts and every cache counter stay.
var masks = []struct {
	re   *regexp.Regexp
	repl string
}{
	{regexp.MustCompile(`("(?:wall_ns|sum|max)": ?)\d+`), "${1}*"},
	{regexp.MustCompile(`("buckets": ?)\[[^\]]*\]`), "${1}*"},
	{regexp.MustCompile(`( in )\d\S*( \()`), "${1}*${2}"},
	{regexp.MustCompile(`(: stages: ).*`), "${1}*"},
}

func mask(b []byte) []byte {
	for _, m := range masks {
		b = m.re.ReplaceAll(b, []byte(m.repl))
	}
	return b
}

// classSplit is the one trailer split the worker count may move: a class
// lookup that finds another worker computing the class waits, and times
// its wait, instead of hitting. Their sum, the trailer's class_hits,
// stays.
var classSplit = regexp.MustCompile(`("cache/class/(?:hit|wait)":)\{[^}]*\}`)

// invoke runs one dse command line (without the program name) as main
// does.
func invoke(args ...string) (stdout, stderr []byte, code int) {
	var o, e bytes.Buffer
	code = command(args, &o, &e)
	return o.Bytes(), e.Bytes(), code
}

// record runs dse with args and appends the run to g: the command line,
// stdout, stderr, the named files the run wrote, and a non-zero exit
// status, all masked. It returns stdout unmasked.
func record(t *testing.T, g *bytes.Buffer, files []string, args ...string) []byte {
	t.Helper()
	stdout, stderr, code := invoke(args...)
	fmt.Fprintf(g, "$ dse %s\n", strings.Join(args, " "))
	g.Write(mask(stdout))
	if len(stderr) > 0 {
		g.WriteString("--- stderr\n")
		g.Write(mask(stderr))
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(g, "--- %s\n", f)
		g.Write(mask(data))
	}
	if code != 0 {
		fmt.Fprintf(g, "--- exit status %d\n", code)
	}
	g.WriteByte('\n')
	return stdout
}

func writeFile(t *testing.T, name string, data []byte) {
	t.Helper()
	if err := os.WriteFile(name, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDSEGolden pins what dse prints, command by command, in
// testdata/dse.golden: each sweep's stdout and stats lines, its -metrics
// document and the exit status, masked as above. Sweeps run at -workers
// 1 and again at -workers 8, whose stdout must be the same. The shard
// files, their merge in every format, a fleet task file and the files
// merge refuses are written to and read from a temporary directory.
func TestDSEGolden(t *testing.T) {
	path, err := filepath.Abs(filepath.Join("testdata", "dse.golden"))
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(t.TempDir())
	var g bytes.Buffer
	sweep := func(files []string, args ...string) []byte {
		t.Helper()
		args = append([]string{"-workers", "1"}, args...)
		out := record(t, &g, files, args...)
		args[1] = "8"
		out8, stderr, _ := invoke(args...)
		norm := func(b []byte) []byte { return classSplit.ReplaceAll(mask(b), []byte("${1}*")) }
		if !bytes.Equal(norm(out), norm(out8)) {
			t.Errorf("dse %s: stdout differs from -workers 1 (%d vs %d bytes); stderr:\n%s", strings.Join(args, " "), len(out8), len(out), stderr)
		}
		return out
	}
	sweep(nil, "-portfolio")
	sweep(nil, "-portfolio-all", "-kernels", "fir,figure1", "-budgets", "16,32", "-format", "csv")
	sweep(nil, "-memlat", "1,2", "-ports", "1,2", "-format", "csv")

	shards := []string{"s0.jsonl", "s1.jsonl", "s2.jsonl"}
	for i, s := range shards {
		writeFile(t, s, sweep(nil, "-kernels", "fir,figure1", "-budgets", "16,32", "-shard", fmt.Sprintf("%d/3", i)))
	}
	for _, format := range []string{"table", "csv", "json"} {
		record(t, &g, nil, append([]string{"merge", "-format", format}, shards...)...)
	}
	// merge refuses a shard whose trailer line was cut...
	s2, err := os.ReadFile("s2.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, "s2-cut.jsonl", s2[:bytes.LastIndexByte(s2[:len(s2)-1], '\n')+1])
	record(t, &g, nil, "merge", "s0.jsonl", "s1.jsonl", "s2-cut.jsonl")
	// ...and a fleet task file: what a ProcExecutor runs, `dse -space
	// spec.json -points ...`, on the space the shard headers carry.
	var header struct {
		Space json.RawMessage `json:"space"`
	}
	if err := json.Unmarshal(s2[:bytes.IndexByte(s2, '\n')], &header); err != nil {
		t.Fatal(err)
	}
	writeFile(t, "spec.json", header.Space)
	writeFile(t, "task.jsonl", sweep(nil, "-space", "spec.json", "-points", "0,1,2"))
	record(t, &g, nil, "merge", "task.jsonl")

	sweep([]string{"m.json"}, "-format", "csv", "-metrics", "m.json", "-trace", "t.jsonl")
	trace, err := os.ReadFile("t.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(trace), "\n"), "\n")
	var meta struct {
		Format   string `json:"format"`
		Cap      int    `json:"cap"`
		Kept     int    `json:"kept"`
		Recorded int    `json:"recorded"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &meta); err != nil || meta.Format != "repro-dse-trace" ||
		meta.Cap != obs.DefaultTraceCap || meta.Kept == 0 || meta.Kept != len(lines)-1 {
		t.Errorf("t.jsonl: meta line %q (%v) over %d events, want repro-dse-trace, the default cap and every kept event", lines[0], err, len(lines)-1)
	}

	golden.Check(t, path, g.Bytes())
}

// TestFleetRemoteMatchesSweep: `dse fleet` over a `dse serve` endpoint
// prints dse's own render of the same space. The endpoint is an
// in-process server; a local executor would exec the test binary.
func TestFleetRemoteMatchesSweep(t *testing.T) {
	cache, metrics := simcache.New(), obs.New()
	cache.SetObs(metrics)
	srv, err := serve.New(cache, metrics, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	space := []string{"-kernels", "fir,figure1", "-budgets", "16,32", "-quiet"}
	want, stderr, code := invoke(space...)
	if code != 0 {
		t.Fatalf("dse: exit status %d: %s", code, stderr)
	}
	got, stderr, code := invoke(append([]string{"fleet", "-remote", ts.URL}, space...)...)
	if code != 0 {
		t.Fatalf("dse fleet: exit status %d: %s", code, stderr)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("dse fleet printed %d bytes, dse %d:\n%s", len(got), len(want), got)
	}
}

// countingWriter counts the writes that reach it and their bytes.
type countingWriter struct{ writes, n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.n += len(p)
	return len(p), nil
}

// TestMergeWritesThroughABuffer: merge renders through a buffer, as the
// sweep does, so the stock table reaches stdout in a handful of writes,
// not one per point.
func TestMergeWritesThroughABuffer(t *testing.T) {
	t.Chdir(t.TempDir())
	shard, stderr, code := invoke("-quiet", "-shard", "0/1")
	if code != 0 {
		t.Fatalf("dse -shard 0/1: exit status %d: %s", code, stderr)
	}
	writeFile(t, "s.jsonl", shard)
	var w countingWriter
	if code := command([]string{"merge", "-quiet", "s.jsonl"}, &w, io.Discard); code != 0 {
		t.Fatalf("dse merge: exit status %d", code)
	}
	if w.n == 0 || w.writes > w.n/4096+1 {
		t.Errorf("merge wrote %d bytes in %d writes, want one per 4 KiB", w.n, w.writes)
	}
}
