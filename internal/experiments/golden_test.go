package experiments

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/golden"
)

// TestTable1Golden pins the text cmd/table1 prints for the default
// options: the formatted rows, the §5 aggregates and the paper-shape
// check. The qualitative tests above say which claims hold; this one
// catches any change to the numbers behind them.
func TestTable1Golden(t *testing.T) {
	rows := table(t)
	var b strings.Builder
	b.WriteString(Format(rows))
	b.WriteString("\n" + Aggregates(rows).String() + "\n")
	b.WriteString("paper-shape violations:\n")
	for _, v := range CheckPaperShape(rows) {
		b.WriteString("  - " + v + "\n")
	}
	golden.Check(t, filepath.Join("testdata", "table1.golden"), []byte(b.String()))
}
