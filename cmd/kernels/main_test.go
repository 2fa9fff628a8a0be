package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/golden"
)

// TestKernelsGolden pins what kernels prints: the suite with its reuse
// analysis, and one kernel's DSL source.
func TestKernelsGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, dump := range []string{"", "fir"} {
		if dump == "" {
			buf.WriteString("$ kernels\n")
		} else {
			fmt.Fprintf(&buf, "$ kernels -dump %s\n", dump)
		}
		if err := run(&buf, dump); err != nil {
			t.Fatalf("-dump %q: %v", dump, err)
		}
		buf.WriteByte('\n')
	}
	golden.Check(t, filepath.Join("testdata", "kernels.golden"), buf.Bytes())
}
