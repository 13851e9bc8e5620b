// Package framework is a self-contained, stdlib-only re-implementation
// of the golang.org/x/tools/go/analysis surface this repo's analyzers
// are written against: Analyzer/Pass/Diagnostic/SuggestedFix, a package
// loader, and directive helpers.
//
// Why not depend on x/tools? The build environment is offline and the
// module has no dependencies; rather than vendor a large tree, this
// package reproduces the small slice of the API the chaos-vet suite
// needs. Analyzers are written in the x/tools idiom (same field names,
// same Run signature), so migrating to the real framework later is a
// change of import path, not of analyzer code.
//
// Type information comes from the gc export data the go command already
// produces: the loader shells out to `go list -export -deps -json`,
// parses the target packages from source, and resolves every import
// through go/importer's gc reader. This works fully offline and stays
// byte-for-byte consistent with the compiler's view of the code.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one static check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the chaos-vet
	// command line. By convention it is a single lowercase word.
	Name string
	// Doc is the analyzer's documentation: first line a one-sentence
	// summary, then the invariant it enforces and the escape hatch.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) (interface{}, error)
}

// A Pass presents one package to an Analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic.
	Report func(Diagnostic)

	pkg *Package // backing loaded package (sources, directives)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Source returns the raw bytes of the file containing pos, for
// diagnostics that quote or rewrite the original text.
func (p *Pass) Source(pos token.Pos) []byte {
	return p.pkg.Sources[p.Fset.Position(pos).Filename]
}

// Directives returns the directive index for the file containing pos.
func (p *Pass) Directives(pos token.Pos) *DirectiveIndex {
	return p.pkg.directives(p.Fset.Position(pos).Filename)
}

// Suppressed reports whether the //chaos:<name> directive is attached
// to the line of pos (trailing on the same line or alone on the line
// above), the per-site escape hatch every chaos-vet analyzer honors.
func (p *Pass) Suppressed(name string, pos token.Pos) bool {
	return p.Directives(pos).SuppressedAt(p.Fset, pos, name)
}

// A Diagnostic is one finding, positioned within a source file.
type Diagnostic struct {
	Pos     token.Pos
	End     token.Pos // optional
	Message string
	// Analyzer is filled in by the driver.
	Analyzer string
	// SuggestedFixes holds mechanical rewrites that resolve the
	// diagnostic; chaos-vet -fix applies them.
	SuggestedFixes []SuggestedFix
}

// A SuggestedFix is one self-contained rewrite.
type SuggestedFix struct {
	Message   string
	TextEdits []TextEdit
}

// A TextEdit replaces [Pos, End) with NewText. An insertion has
// Pos == End.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText []byte
}

// Run applies each analyzer to each package and returns all
// diagnostics in file/position order. Every package must have been
// loaded into the same FileSet: a Pos is an offset into one FileSet,
// and resolving it against another silently yields positions in the
// wrong file (and, under -fix, rewrites of the wrong file).
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	for i := 1; i < len(pkgs); i++ {
		if pkgs[i].Fset != pkgs[0].Fset {
			return nil, fmt.Errorf(
				"packages %s and %s were loaded into different FileSets; pass one shared FileSet to every Load call of a run",
				pkgs[0].PkgPath, pkgs[i].PkgPath)
		}
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				pkg:       pkg,
			}
			pass.Report = func(d Diagnostic) {
				d.Analyzer = a.Name
				diags = append(diags, d)
			}
			if _, err := a.Run(pass); err != nil {
				return diags, fmt.Errorf("%s: %s: %v", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sortDiagnostics(pkgs, diags)
	return diags, nil
}

func sortDiagnostics(pkgs []*Package, diags []Diagnostic) {
	if len(pkgs) == 0 {
		return
	}
	fset := pkgs[0].Fset
	// Insertion sort keeps the dependency footprint minimal; diagnostic
	// counts are tiny.
	for i := 1; i < len(diags); i++ {
		for j := i; j > 0; j-- {
			a, b := fset.Position(diags[j-1].Pos), fset.Position(diags[j].Pos)
			if a.Filename < b.Filename || (a.Filename == b.Filename && a.Offset <= b.Offset) {
				break
			}
			diags[j-1], diags[j] = diags[j], diags[j-1]
		}
	}
}
