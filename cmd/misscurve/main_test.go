package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/golden"
)

// TestMissCurveGolden pins the miss-curve CSV of the default kernel and
// sizes, and of figure1 at three sizes.
func TestMissCurveGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, c := range []struct{ kernel, sizes string }{
		{"fir", "1,2,4,8,16,32,64"},
		{"figure1", "1,4,16"},
	} {
		fmt.Fprintf(&buf, "$ misscurve -kernel %s -sizes %s\n", c.kernel, c.sizes)
		if err := run(&buf, c.kernel, c.sizes); err != nil {
			t.Fatalf("%s: %v", c.kernel, err)
		}
		buf.WriteByte('\n')
	}
	golden.Check(t, filepath.Join("testdata", "misscurve.golden"), buf.Bytes())
}
