// Package analysis is the interface between the repro-vet analyzers and
// their two drivers, cmd/reprovet and the antest fixture harness: an
// analyzer is a function over one type-checked package that reports
// diagnostics, and Run applies a list of them. No analyzer depends on
// another's result or on facts about imported packages, so there is no
// dependency graph, fact store or suggested fix to carry.
package analysis

import (
	"cmp"
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// An Analyzer checks one invariant of a package.
type Analyzer struct {
	Name string // short identifier, used to prefix the analyzer's errors
	Doc  string // one-line description of the invariant
	Run  func(*Pass) error
}

// A Pass is one type-checked package handed to an analyzer.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Reportf   func(pos token.Pos, format string, args ...any)
}

// A Diagnostic is one finding, at its resolved position.
type Diagnostic struct {
	Pos     token.Position
	Message string
}

// Run type-checks the parsed files of the package at path under conf and
// applies the analyzers to it. It returns their diagnostics sorted by
// file name and offset, and the analyzers' errors joined; a type error
// returns no diagnostics.
func Run(conf *types.Config, path string, fset *token.FileSet, files []*ast.File, analyzers ...*Analyzer) ([]Diagnostic, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	var diags []Diagnostic
	pass := &Pass{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info,
		Reportf: func(pos token.Pos, format string, args ...any) {
			diags = append(diags, Diagnostic{fset.Position(pos), fmt.Sprintf(format, args...)})
		},
	}
	var errs []error
	for _, a := range analyzers {
		if err := a.Run(pass); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", a.Name, err))
		}
	}
	slices.SortStableFunc(diags, func(a, b Diagnostic) int {
		return cmp.Or(strings.Compare(a.Pos.Filename, b.Pos.Filename), cmp.Compare(a.Pos.Offset, b.Pos.Offset))
	})
	return diags, errors.Join(errs...)
}
