package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/golden"
)

// goldenCase is one table1 invocation the golden pins.
type goldenCase struct {
	kernel      string
	ports, regs int
	summary     bool
}

// args renders the case as the flags that print it.
func (c goldenCase) args() string {
	var s []string
	if c.kernel != "" {
		s = append(s, "-kernel", c.kernel)
	}
	if c.ports != 1 {
		s = append(s, "-ports", fmt.Sprint(c.ports))
	}
	if c.regs != 0 {
		s = append(s, "-regs", fmt.Sprint(c.regs))
	}
	if !c.summary {
		s = append(s, "-summary=false")
	}
	return strings.Join(s, " ")
}

// TestTable1Golden pins what table1 prints: the whole table with its
// aggregates and paper-shape check, one kernel on two-port RAMs, and
// every kernel at a 32-register budget without the summary.
func TestTable1Golden(t *testing.T) {
	var buf bytes.Buffer
	for _, c := range []goldenCase{
		{ports: 1, summary: true},
		{kernel: "mat", ports: 2, summary: true},
		{ports: 1, regs: 32},
	} {
		fmt.Fprintf(&buf, "$ %s\n", strings.TrimSpace("table1 "+c.args()))
		if err := run(&buf, c.kernel, c.ports, c.regs, c.summary); err != nil {
			t.Fatalf("%s: %v", c.args(), err)
		}
		buf.WriteByte('\n')
	}
	golden.Check(t, filepath.Join("testdata", "table1.golden"), buf.Bytes())
}
