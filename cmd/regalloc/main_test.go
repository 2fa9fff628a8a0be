package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/golden"
)

// goldenCase is one regalloc invocation the golden pins.
type goldenCase struct {
	kernel, algo string
	regs, ports  int
	trace        bool
}

// args renders the case as the command line that prints it.
func (c goldenCase) args() string {
	s := fmt.Sprintf("-kernel %s -algo %s", c.kernel, c.algo)
	if c.regs != 0 {
		s += fmt.Sprintf(" -regs %d", c.regs)
	}
	if c.ports != 1 {
		s += fmt.Sprintf(" -ports %d", c.ports)
	}
	if c.trace {
		s += " -trace"
	}
	return s
}

// goldenCases are every kernel under every allocator at its default
// budget, plus the slowest transfer replay (bic, CPA-RA, 32 registers), a
// two-port case and a decision trace.
func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, k := range []string{"figure1", "fir", "decfir", "imi", "mat", "pat", "bic"} {
		for _, a := range []string{"FR-RA", "PR-RA", "CPA-RA", "KS-RA"} {
			cases = append(cases, goldenCase{kernel: k, algo: a, ports: 1})
		}
	}
	return append(cases,
		goldenCase{kernel: "bic", algo: "CPA-RA", regs: 32, ports: 1},
		goldenCase{kernel: "mat", algo: "PR-RA", ports: 2},
		goldenCase{kernel: "figure1", algo: "CPA-RA", ports: 1, trace: true},
	)
}

// TestRegallocGolden pins what regalloc prints — the allocation, the
// hardware metrics and the transfer traffic — for every golden case.
func TestRegallocGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, c := range goldenCases() {
		fmt.Fprintf(&buf, "$ regalloc %s\n", c.args())
		if err := run(&buf, c.kernel, c.algo, c.regs, c.ports, c.trace, false); err != nil {
			t.Fatalf("%s: %v", c.args(), err)
		}
		buf.WriteByte('\n')
	}
	golden.Check(t, filepath.Join("testdata", "regalloc.golden"), buf.Bytes())
}
