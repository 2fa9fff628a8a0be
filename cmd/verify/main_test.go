package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/golden"
)

// goldenCase is one verify invocation the golden pins.
type goldenCase struct {
	kernel, algo string
	seed         int64
}

func (c goldenCase) args() string {
	return fmt.Sprintf("-kernel %s -algo %s -seed %d", c.kernel, c.algo, c.seed)
}

// TestVerifyGolden pins what verify prints when every executor agrees:
// the default case and two more kernels, allocators and seeds.
func TestVerifyGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, c := range []goldenCase{
		{"figure1", "CPA-RA", 7},
		{"fir", "FR-RA", 7},
		{"decfir", "PR-RA", 3},
	} {
		fmt.Fprintf(&buf, "$ verify %s\n", c.args())
		if err := run(&buf, c.kernel, c.algo, c.seed); err != nil {
			t.Fatalf("%s: %v", c.args(), err)
		}
		buf.WriteByte('\n')
	}
	golden.Check(t, filepath.Join("testdata", "verify.golden"), buf.Bytes())
}
