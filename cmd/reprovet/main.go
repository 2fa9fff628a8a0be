// Command reprovet is the repo's static-analysis suite: five analyzers
// that enforce the engine's cache-key, determinism, hot-path, nil-safety
// and panic-isolation invariants (DESIGN.md §10). The go command runs it:
//
//	go build -o "$(go env GOPATH)/bin/reprovet" ./cmd/reprovet
//	go vet -vettool="$(go env GOPATH)/bin/reprovet" ./...
//
// It speaks the go command's vet-tool protocol (that of x/tools'
// unitchecker, without analysis facts) on the standard library alone.
// -V=full prints "reprovet version devel buildID=<sha256 of the
// executable>", which keys the go command's vet cache; -flags prints the
// tool's flags as JSON, []; a unit.cfg argument vets the unit that JSON
// file describes: its files are type-checked against the export data the
// go command compiled, each diagnostic goes to stderr as
// file:line:col: message, and the exit status is 1 on any diagnostic or
// error. No analyzer exports facts, so a unit vetted only for its facts
// (VetxOnly: a dependency of the packages named) gets an empty facts
// file and is neither parsed nor type-checked.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"strings"

	"repro/internal/analyzers/analysis"
	"repro/internal/analyzers/detmap"
	"repro/internal/analyzers/fingerprintfields"
	"repro/internal/analyzers/hotpath"
	"repro/internal/analyzers/nilsafeobs"
	"repro/internal/analyzers/recoverworker"
)

var analyzers = []*analysis.Analyzer{
	fingerprintfields.Analyzer,
	detmap.Analyzer,
	hotpath.Analyzer,
	nilsafeobs.Analyzer,
	recoverworker.Analyzer,
}

// config is the part of the go command's vet.cfg the tool reads.
type config struct {
	Compiler    string            // compiler whose export data PackageFile holds
	ImportPath  string            // package path of the unit
	GoVersion   string            // language version, e.g. "go1.24"
	GoFiles     []string          // absolute paths of the unit's Go files
	ImportMap   map[string]string // import path in source → package path
	PackageFile map[string]string // package path → export data file
	VetxOnly    bool              // vetted only for facts; report nothing
	VetxOutput  string            // where to write the unit's facts
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("reprovet: ")
	var arg string
	if len(os.Args) == 2 {
		arg = os.Args[1]
	}
	switch {
	case arg == "-V=full":
		id, err := buildID()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("reprovet version devel buildID=%x\n", id)
	case arg == "-flags":
		fmt.Println("[]")
	case strings.HasSuffix(arg, ".cfg"):
		diags, err := vet(arg)
		if err != nil {
			log.Print(err)
		}
		if diags > 0 || err != nil {
			os.Exit(1)
		}
	default:
		log.Fatal("takes -V=full, -flags or one unit.cfg; run it as go vet -vettool=$(which reprovet) [packages]")
	}
}

// buildID is the SHA-256 of the running executable, so that every
// rebuilt binary invalidates the go command's cached vet results.
func buildID() ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f, err := os.Open(exe)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return nil, err
	}
	return h.Sum(nil), nil
}

// vet vets the unit described by the config file at path, prints its
// diagnostics to stderr and returns their number.
func vet(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var cfg config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return 0, fmt.Errorf("decoding %s: %w", path, err)
	}
	// The go command caches the facts file, so a dependency unit runs
	// again only when the tool binary changes.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			return 0, err
		}
	}
	if cfg.VetxOnly {
		return 0, nil
	}

	fset := token.NewFileSet()
	files := make([]*ast.File, len(cfg.GoFiles))
	for i, name := range cfg.GoFiles {
		if files[i], err = parser.ParseFile(fset, name, nil, parser.ParseComments); err != nil {
			return 0, err
		}
	}
	exports := importer.ForCompiler(fset, cfg.Compiler, func(pkgPath string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[pkgPath]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", pkgPath)
		}
		return os.Open(file)
	})
	conf := &types.Config{
		Importer: importerFunc(func(importPath string) (*types.Package, error) {
			pkgPath, ok := cfg.ImportMap[importPath]
			if !ok {
				return nil, fmt.Errorf("cannot resolve import %q", importPath)
			}
			return exports.Import(pkgPath)
		}),
		Sizes:     types.SizesFor("gc", build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	diags, err := analysis.Run(conf, cfg.ImportPath, fset, files, analyzers...)
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s\n", d.Pos, d.Message)
	}
	return len(diags), err
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
