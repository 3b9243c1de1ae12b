package checker

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package loading. The checker needs type-checked syntax for every target
// package but must work offline with nothing beyond the standard
// toolchain, so it does what the original nondeterminism linter did:
// resolve patterns and file lists with `go list -json`, obtain gc export
// data for every dependency with `go list -json -export -deps` (the build
// cache supplies the .a files; no network), then type-check each target
// from source with an importer that reads that export data.
//
// Only GoFiles are analyzed — test files are deliberately out of scope:
// the invariants rapidvet enforces are contracts of the shipped runtime,
// and tests legitimately do things the analyzers forbid (sentinel
// comparisons on crafted errors, raw fd writes to fabricate corrupt
// journals, blind sleeps in fault harnesses).

// listedPackage is the subset of `go list -json` output the checker needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Export     string
	Standard   bool
}

// goList runs `go list -json <args>` and decodes the JSON stream.
func goList(args ...string) ([]listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, errb.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(&out)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter satisfies types.Importer with gc export data located via
// `go list -export -deps`.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// Package is one loaded, type-checked target.
type Package struct {
	ImportPath string
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// newTypesInfo allocates every map an analyzer may consult.
func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// Load resolves patterns and returns each matched package type-checked
// from source, sharing one FileSet.
func Load(patterns []string) (*token.FileSet, []*Package, error) {
	targets, err := goList(patterns...)
	if err != nil {
		return nil, nil, err
	}
	deps, err := goList(append([]string{"-export", "-deps"}, patterns...)...)
	if err != nil {
		return nil, nil, err
	}
	exports := make(map[string]string, len(deps))
	for _, p := range deps {
		exports[p.ImportPath] = p.Export
	}

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var pkgs []*Package
	for _, t := range targets {
		var files []*ast.File
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, err
			}
			files = append(files, f)
		}
		info := newTypesInfo()
		conf := types.Config{Importer: imp, FakeImportC: true}
		tpkg, err := conf.Check(t.ImportPath, fset, files, info)
		if err != nil {
			return nil, nil, fmt.Errorf("typecheck %s: %v", t.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			ImportPath: t.ImportPath,
			Files:      files,
			Pkg:        tpkg,
			Info:       info,
		})
	}
	return fset, pkgs, nil
}

// appliesTo reports whether an analyzer scoped to paths runs on the
// package: exact import-path match or suffix match on a path-segment
// boundary, so "internal/exec" covers both "repro/internal/exec" and a
// fork's "example.com/repro/internal/exec".
func appliesTo(paths []string, importPath string) bool {
	if len(paths) == 0 {
		return true
	}
	for _, p := range paths {
		if importPath == p || strings.HasSuffix(importPath, "/"+p) {
			return true
		}
	}
	return false
}
