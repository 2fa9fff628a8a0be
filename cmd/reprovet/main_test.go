package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analyzers/analysis"
	"repro/internal/analyzers/antest"
)

// fixtures maps each analyzer fixture package to the analyzer whose
// testdata holds it.
var fixtures = map[string]string{
	"det": "detmap", "detoff": "detmap",
	"fp":  "fingerprintfields",
	"hot": "hotpath",
	"ns":  "nilsafeobs", "nsrv": "nilsafeobs",
	"rw": "recoverworker", "srv": "recoverworker",
}

// An in-package test file makes go vet check the [rw.test] unit, which
// holds it, in place of rw.
const rwTest = `package rw

func spawn() {
	go work() // want ` + "`goroutine does not recover panics`" + `
}
`

var diagLine = regexp.MustCompile(`^(.+?):(\d+):\d+: (.*)$`)

// TestVetProtocol builds the tool and runs it the way CI does, under
// go vet -vettool, over a module of the analyzer fixtures: every
// analyzer runs on every unit, so the output must be exactly the
// fixtures' // want diagnostics, with no analyzer reporting on another's
// fixture.
func TestVetProtocol(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "reprovet")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// -V=full must pass the go command's parse of a tool's version line
	// (toolID in cmd/go/internal/work/buildid.go), and the build ID must
	// change with the binary.
	out, err := exec.Command(bin, "-V=full").Output()
	if err != nil {
		t.Fatalf("-V=full: %v", err)
	}
	f := strings.Fields(string(out))
	if len(f) < 3 || f[1] != "version" || f[2] == "devel" && !strings.HasPrefix(f[len(f)-1], "buildID=") {
		t.Fatalf("-V=full: the go command cannot parse %q", out)
	}
	exe, err := os.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("buildID=%x", sha256.Sum256(exe)); f[len(f)-1] != want {
		t.Errorf("-V=full: got %s, want %s", f[len(f)-1], want)
	}

	out, err = exec.Command(bin, "-flags").Output()
	if err != nil {
		t.Fatalf("-flags: %v", err)
	}
	var flags []struct {
		Name  string
		Bool  bool
		Usage string
	}
	if err := json.Unmarshal(out, &flags); err != nil {
		t.Fatalf("-flags: %q is not a JSON array of flags: %v", out, err)
	}

	mod := filepath.Join(dir, "fixtures")
	write := func(name, text string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(name, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(filepath.Join(mod, "go.mod"), "module fixtures\n\ngo 1.24\n")
	write(filepath.Join(mod, "rw", "rw_test.go"), rwTest)
	for pkg, analyzer := range fixtures {
		src := filepath.Join("..", "..", "internal", "analyzers", analyzer, "testdata", "src", pkg)
		names, err := filepath.Glob(filepath.Join(src, "*.go"))
		if err != nil || len(names) == 0 {
			t.Fatalf("fixture %s: no Go files in %s (%v)", pkg, src, err)
		}
		for _, name := range names {
			text, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			write(filepath.Join(mod, pkg, filepath.Base(name)), string(text))
		}
	}

	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = mod
	vet.Env = append(os.Environ(), "GOFLAGS=", "GOPROXY=off")
	out, err = vet.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("go vet: want a non-zero exit status, got %v\n%s", err, out)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for pkg := range fixtures {
		files = append(files, antest.Parse(t, fset, filepath.Join(mod, pkg))...)
	}
	var diags []analysis.Diagnostic
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue // the go command's per-unit header
		}
		m := diagLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("go vet: unexpected output line %q", line)
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(mod, file)
		}
		n, _ := strconv.Atoi(m[2])
		diags = append(diags, analysis.Diagnostic{Pos: token.Position{Filename: file, Line: n}, Message: m[3]})
	}
	antest.Check(t, fset, files, diags)
}
