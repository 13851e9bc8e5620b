package framework

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

// Package is one loaded, parsed and type-checked package.
type Package struct {
	PkgPath   string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
	// Sources maps absolute file path to raw bytes, for fix building.
	Sources map[string][]byte

	dirIdx map[string]*DirectiveIndex
}

func (p *Package) directives(filename string) *DirectiveIndex {
	if idx, ok := p.dirIdx[filename]; ok {
		return idx
	}
	idx := &DirectiveIndex{}
	for _, f := range p.Files {
		if p.Fset.Position(f.Pos()).Filename == filename {
			idx = IndexDirectives(p.Fset, f)
			break
		}
	}
	if p.dirIdx == nil {
		p.dirIdx = map[string]*DirectiveIndex{}
	}
	p.dirIdx[filename] = idx
	return idx
}

// listPackage is the subset of `go list -json` output the loader reads.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Error      *struct{ Err string }
}

// Load loads, parses and type-checks the packages matched by patterns,
// resolving every dependency (stdlib and intra-module alike) from the
// gc export data `go list -export` places in the build cache. It runs
// entirely offline. Only non-test Go files are analyzed: the suite's
// invariants constrain production code, and test files routinely (and
// legitimately) use maps, wall clocks and hooks in ways the analyzers
// would have to special-case.
//
// The caller supplies the FileSet. Every package analyzed in one run —
// across any number of Load calls — must share a single
// FileSet, because diagnostic positions are resolved against one
// FileSet when printing, sorting and applying fixes; Run rejects
// packages loaded into different FileSets.
func Load(fset *token.FileSet, dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,Standard,DepOnly,GoFiles,Error",
		"--",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := map[string]string{}
	var targets []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			q := p
			targets = append(targets, &q)
		}
	}

	imp := exportImporter(fset, exports)
	var pkgs []*Package
	for _, t := range targets {
		pkg, err := typecheck(fset, imp, t.ImportPath, t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func typecheck(fset *token.FileSet, imp types.Importer, pkgPath, dir string, goFiles []string) (*Package, error) {
	files := make([]*ast.File, 0, len(goFiles))
	sources := map[string][]byte{}
	for _, name := range goFiles {
		path := filepath.Join(dir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		sources[path] = src
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", pkgPath, err)
	}
	return &Package{
		PkgPath:   pkgPath,
		Dir:       dir,
		Fset:      fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
		Sources:   sources,
	}, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// exportImporter resolves import paths through the export-data files
// recorded by `go list -export`. One importer instance is shared by
// every package of a load so type identity is consistent across them.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q (not in the go list -deps closure)", path)
		}
		return os.Open(f)
	})
}
