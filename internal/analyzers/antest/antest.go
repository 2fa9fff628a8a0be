// Package antest runs an analyzer over fixture packages and checks its
// diagnostics against `// want` comments, in the manner of x/tools'
// analysistest. A fixture package lives in testdata/src/<pkg>, imports
// only the standard library (type-checked from source), and goes
// through the same analysis.Run as cmd/reprovet; Parse and Check also
// serve cmd/reprovet's test, which holds the tool's output over the
// same fixtures to the same comments.
//
// Expectation syntax, same shape as analysistest:
//
//	m[k] = v // want `regexp` `another regexp`
//
// Each backquoted (or double-quoted) regexp must match a diagnostic
// reported on that comment's line; diagnostics with no matching
// expectation, and expectations with no matching diagnostic, fail the
// test.
package antest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analyzers/analysis"
)

// TestData returns the absolute path of the caller package's testdata
// directory, mirroring analysistest.TestData.
func TestData(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(wd, "testdata")
}

// Run loads each fixture package under testdata/src/<pkg>, applies the
// analyzer, and checks its diagnostics against the // want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		t.Run(pkg, func(t *testing.T) {
			fset := token.NewFileSet()
			files := Parse(t, fset, filepath.Join(testdata, "src", pkg))
			conf := &types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
			diags, err := analysis.Run(conf, pkg, fset, files, a)
			if err != nil {
				t.Fatal(err)
			}
			Check(t, fset, files, diags)
		})
	}
}

// Parse parses every .go file in dir, comments included.
func Parse(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", e.Name(), err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}
	return files
}

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

// Check matches diagnostics against the // want comments of files. Each
// diagnostic must match an unused want on its file and line, and every
// want must be matched.
func Check(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// A want may be the whole comment or share a line comment
				// with a //repro: directive under test.
				i := strings.Index(c.Text, "// want ")
				if i < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, raw := range splitPatterns(c.Text[i+len("// want "):]) {
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, raw, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: raw})
				}
			}
		}
	}

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", filepath.Base(w.file), w.line, w.raw)
		}
	}
}

// splitPatterns parses the tail of a want comment: a sequence of
// backquoted or double-quoted regexp literals.
func splitPatterns(s string) []string {
	var pats []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				pats = append(pats, s[1:])
				return pats
			}
			pats = append(pats, s[1:1+end])
			s = strings.TrimSpace(s[end+2:])
		case '"':
			var lit string
			rest := s[1:]
			for i := 0; i < len(rest); i++ {
				if rest[i] == '\\' {
					i++
					continue
				}
				if rest[i] == '"' {
					q, err := strconv.Unquote(s[:i+2])
					if err == nil {
						lit = q
					}
					rest = rest[i+1:]
					break
				}
			}
			pats = append(pats, lit)
			s = strings.TrimSpace(rest)
		default:
			return pats
		}
	}
	return pats
}
