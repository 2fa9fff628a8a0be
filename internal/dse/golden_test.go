package dse

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden file under testdata/")

// TestStockRendersGolden pins the bytes of the stock sweep in every
// format RendererFor names, as `dse -format <f>` prints them: the table
// with its frontier trailer, the CSV with its pareto column, and the
// indented JSON. The other reporter tests compare renders of one build
// with each other; this one catches a change to all of them at once. The
// CSV block must also hash to the benchmark's stock digest, so the two
// pins cannot drift apart.
func TestStockRendersGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, format := range []string{"table", "csv", "json"} {
		r, err := RendererFor(format)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if _, err := (Engine{Workers: 1}).ExploreStream(DefaultSpace(), r.Stream(&out)); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if format == "csv" {
			want, err := os.ReadFile(filepath.Join("..", "..", "bench", "golden", "stock.sha256"))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(out.Bytes())
			if got := hex.EncodeToString(sum[:]); got != strings.TrimSpace(string(want)) {
				t.Errorf("stock CSV digest %s, bench/golden/stock.sha256 holds %s", got, want)
			}
		}
		fmt.Fprintf(&buf, "$ dse -format %s\n", format)
		buf.Write(out.Bytes())
		buf.WriteByte('\n')
	}
	path := filepath.Join("testdata", "stock.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	got, wantLines := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(got), len(wantLines)) {
		if got[i] != wantLines[i] {
			t.Fatalf("%s line %d:\n got: %q\nwant: %q", path, i+1, got[i], wantLines[i])
		}
	}
	if len(got) != len(wantLines) {
		t.Fatalf("the stock renders have %d lines, %s holds %d", len(got), path, len(wantLines))
	}
}
