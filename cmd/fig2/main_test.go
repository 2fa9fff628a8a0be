package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden file under testdata/")

// TestFigure2Golden pins the text `fig2 -stage all` prints: the running
// example, its data-flow and critical graphs, the cuts, and every
// allocator's register distribution and Tmem.
func TestFigure2Golden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "all"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "fig2.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := buf.String(); got != string(want) {
		t.Fatalf("fig2 text differs from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestStagesPartitionAll: the three stages together print exactly what
// -stage all prints, in order.
func TestStagesPartitionAll(t *testing.T) {
	var all, parts bytes.Buffer
	if err := run(&all, "all"); err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"dfg", "cg", "alloc"} {
		if err := run(&parts, stage); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(all.Bytes(), parts.Bytes()) {
		t.Fatalf("dfg+cg+alloc differ from all:\n%s\nvs\n%s", parts.Bytes(), all.Bytes())
	}
}
