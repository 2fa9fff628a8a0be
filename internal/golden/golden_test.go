package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// recorder is a testing.TB whose Fatal ends only the goroutine that
// called Check, keeping the message.
type recorder struct {
	testing.TB
	msg string
}

func (r *recorder) Helper() {}

func (r *recorder) Fatal(args ...any) { r.Fatalf("%s", fmt.Sprint(args...)) }

func (r *recorder) Fatalf(format string, args ...any) {
	r.msg = fmt.Sprintf(format, args...)
	panic(r)
}

// check runs Check against a file holding want and returns its failure
// message, empty if it passed.
func check(t *testing.T, want, got string) string {
	path := filepath.Join(t.TempDir(), "x.golden")
	if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
		t.Fatal(err)
	}
	r := &recorder{TB: t}
	func() {
		defer func() {
			if v := recover(); v != nil && v != r {
				panic(v)
			}
		}()
		Check(r, path, []byte(got))
	}()
	return r.msg
}

func TestCheck(t *testing.T) {
	if *update {
		t.Skip("-update rewrites instead of comparing")
	}
	for _, c := range []struct{ name, want, got, msg string }{
		{"equal", "a\nb\n", "a\nb\n", ""},
		{"differing line", "a\nb\nc\n", "a\nB\nc\n", `line 2 differs (got 4 lines, want 4):` + "\n" + ` got: "B"` + "\nwant: \"b\""},
		{"got is short", "a\nb\nc\n", "a\nb\n", `line 3 differs (got 3 lines, want 4):` + "\n" + ` got: ""` + "\nwant: \"c\""},
		{"got is long", "a\n", "a\nb", `line 2 differs (got 2 lines, want 2):` + "\n" + ` got: "b"` + "\nwant: \"\""},
		{"no final newline", "a\n", "a", `line 2 differs (got 1 lines, want 2):` + "\n" + ` got: "(end of file)"` + "\nwant: \"\""},
	} {
		msg := check(t, c.want, c.got)
		if c.msg == "" && msg != "" || !strings.HasSuffix(msg, c.msg) {
			t.Errorf("%s: Check failed with %q, want a message ending %q", c.name, msg, c.msg)
		}
	}
	r := &recorder{TB: t}
	func() {
		defer func() { recover() }()
		Check(r, filepath.Join(t.TempDir(), "missing.golden"), nil)
	}()
	if !strings.Contains(r.msg, "-update") {
		t.Errorf("a missing golden fails with %q, want a hint to run -update", r.msg)
	}
}
