package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// designCitation matches a citation of DESIGN.md sections by number:
// "DESIGN.md §N" or "DESIGN §N", and the list form "DESIGN §3, §7".
var (
	designCitation = regexp.MustCompile(`DESIGN(?:\.md)? §\d+(?:, §\d+)*`)
	sectionNumber  = regexp.MustCompile(`§\d+`)
)

// TestDesignCitations: every DESIGN section the tree's Go, Markdown and
// YAML files cite by number has a "## §N " heading in DESIGN.md, so a
// renumbered or removed section cannot leave a dangling citation.
// CHANGES.md is skipped: it records history under the numbering of its
// day.
func TestDesignCitations(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	headings := map[string]bool{}
	for _, line := range strings.Split(string(design), "\n") {
		if rest, ok := strings.CutPrefix(line, "## "); ok {
			if n, _, ok := strings.Cut(rest, " "); ok && sectionNumber.MatchString(n) {
				headings[n] = true
			}
		}
	}
	cited := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".md", ".yml", ".yaml":
		default:
			return nil
		}
		if path == "CHANGES.md" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, c := range designCitation.FindAllString(line, -1) {
				for _, n := range sectionNumber.FindAllString(c, -1) {
					cited++
					if !headings[n] {
						t.Errorf("%s:%d cites %s, but DESIGN.md has no %q heading", path, i+1, n, "## "+n+" ")
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cited == 0 {
		t.Fatal("no DESIGN citation found: the walk or the pattern is broken")
	}
}
