package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/golden"
)

// TestFigure2Golden pins the text `fig2 -stage all` prints: the running
// example, its data-flow and critical graphs, the cuts, and every
// allocator's register distribution and Tmem.
func TestFigure2Golden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "all"); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, filepath.Join("testdata", "fig2.golden"), buf.Bytes())
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
