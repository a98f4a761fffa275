// Package lint is the repository's static-analysis driver: a stdlib-only
// (go/ast, go/parser, go/types — no module dependencies) analyzer suite that
// machine-enforces the invariants the performance work rests on. The
// invariants themselves live next to the code as //aickpt:* directives and
// the established xxxLocked convention; this package turns them from
// reviewer lore into diagnostics.
//
// Four analyzers ship today (see CONTRIBUTING.md for the directive
// reference):
//
//   - guardedby: fields annotated `//aickpt:guardedby <mu>` may only be
//     accessed by functions that acquire that mutex or follow the xxxLocked
//     naming convention.
//   - walltime: time.Now/Since/Sleep and friends are forbidden in the
//     sim-deterministic internal packages except at //aickpt:walltime sites.
//   - hotpath: functions annotated //aickpt:hotpath must not contain
//     allocating constructs (fmt.* off the terminating path, string↔[]byte
//     conversions, defer, closures, composite literals boxed into
//     interfaces, appends onto non-reused slices).
//   - poolpair: every sync.Pool Get needs a matching Put before every
//     return or a deferred Put.
//
// New analyzers register by appending to All; the driver, the -json wire
// format and the testdata harness need no changes.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one analyzer finding, in the -json wire form.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	Package  string `json:"package"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one registered check. Run inspects a fully type-checked
// package and reports findings through the pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All is the analyzer registry, in reporting order. Future checks append
// here (~50 lines each: a Run func over a typed AST plus testdata).
var All = []*Analyzer{Guardedby, Walltime, Hotpath, Poolpair}

// Lookup returns the registered analyzer with the given name, or nil.
func Lookup(name string) *Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Pass is one (analyzer, package) run: the typed syntax plus the reporting
// sink. Suppression via //aickpt:allow (and //aickpt:walltime) is applied
// centrally in Reportf so analyzers stay oblivious to it.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// PkgPath is the package's import path; ModPath the module path it
	// belongs to (analyzers that scope by tree position — walltime — use
	// the two together).
	PkgPath string
	ModPath string

	dirs  *directiveIndex
	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos unless an //aickpt:allow directive
// (or the //aickpt:walltime alias) suppresses this analyzer on that line or
// the line directly above it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.dirs.suppresses(position.Filename, position.Line, p.Analyzer.Name) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Package:  p.PkgPath,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the given analyzers over the loaded packages and returns all
// diagnostics sorted by file, line, column, analyzer.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		dirs := indexDirectives(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				PkgPath:  pkg.Path,
				ModPath:  pkg.ModPath,
				dirs:     dirs,
				diags:    &diags,
			}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}
