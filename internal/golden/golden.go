// Package golden compares a test's output with a file under testdata/.
// Every golden test calls Check, so one -update flag rewrites them all,
// e.g. go test ./cmd/dse -run Golden -update.
package golden

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files instead of comparing with them")

// Check compares got with the file at path, or under -update writes got
// there. A mismatch fails t at the first line that differs, with both
// line counts.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
		i++
	}
	n, m := len(gl), len(wl)
	gl, wl = append(gl, "(end of file)"), append(wl, "(end of file)")
	t.Fatalf("%s line %d differs (got %d lines, want %d):\n got: %q\nwant: %q", path, i+1, n, m, gl[i], wl[i])
}
