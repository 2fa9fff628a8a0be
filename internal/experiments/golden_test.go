package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

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
	got := b.String()
	path := filepath.Join("testdata", "table1.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("Table 1 text differs from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
