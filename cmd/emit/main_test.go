package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/golden"
)

// goldenCase is one emit invocation the golden pins.
type goldenCase struct{ kernel, algo, format string }

func (c goldenCase) args() string {
	return fmt.Sprintf("-kernel %s -algo %s -format %s", c.kernel, c.algo, c.format)
}

// goldenCases are the C-like listing and the FSMD state table of every
// kernel under every allocator at its default budget, and the VHDL of
// every kernel under CPA-RA.
func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, k := range []string{"figure1", "fir", "decfir", "imi", "mat", "pat", "bic"} {
		for _, a := range []string{"FR-RA", "PR-RA", "CPA-RA", "KS-RA"} {
			cases = append(cases, goldenCase{k, a, "c"}, goldenCase{k, a, "fsm"})
		}
		cases = append(cases, goldenCase{k, "CPA-RA", "vhdl"})
	}
	return cases
}

// TestEmitGolden pins what emit prints for every golden case. The cases
// run as parallel subtests; their outputs are joined in case order.
func TestEmitGolden(t *testing.T) {
	cases := goldenCases()
	outs := make([]bytes.Buffer, len(cases))
	t.Run("cases", func(t *testing.T) {
		for i, c := range cases {
			t.Run(c.kernel+"/"+c.algo+"/"+c.format, func(t *testing.T) {
				t.Parallel()
				if err := run(&outs[i], c.kernel, c.algo, c.format, 0); err != nil {
					t.Fatalf("%s: %v", c.args(), err)
				}
			})
		}
	})
	if t.Failed() {
		return
	}
	var buf bytes.Buffer
	for i, c := range cases {
		fmt.Fprintf(&buf, "$ emit %s\n", c.args())
		buf.Write(outs[i].Bytes())
		buf.WriteByte('\n')
	}
	golden.Check(t, filepath.Join("testdata", "emit.golden"), buf.Bytes())
}
