// Package analysis is a minimal, dependency-free mirror of the
// golang.org/x/tools/go/analysis API surface that mqssvet's analyzers are
// written against. The container building this repository has no module
// proxy access, so the real x/tools multichecker cannot be vendored; this
// package reimplements the subset mqssvet needs — per-package passes with
// full type information and suppression comments — on the standard library
// alone, plus one hook upstream lacks: a program-level pass. Swapping back
// to x/tools later is a mechanical import change: Analyzer, Pass, and
// Diagnostic keep the upstream field names and semantics wherever both
// exist.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one static check. Name must be a valid identifier:
// it keys -only selection and //lint:mqssvet disable= clauses.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppressions.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run executes the check on one package. Diagnostics go through
	// pass.Report/Reportf; the result value is ignored (kept for the
	// upstream signature).
	Run func(pass *Pass) (any, error)
	// RunProgram, when set, runs once over every loaded package (pass.Pkgs)
	// instead of Run once per package: for a check whose answer depends on
	// code in other packages, such as whether anything references a name.
	RunProgram func(pass *Pass) error
	// Fixed findings cannot be suppressed inline: the analyzer's exceptions
	// live in its own reviewed table.
	Fixed bool
}

// A Pass provides one analyzer's view of one package: syntax, types, and a
// diagnostic sink. It mirrors x/tools' analysis.Pass.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps positions for every file in the run (shared program-wide).
	Fset *token.FileSet
	// Files holds the package's parsed syntax trees (tests excluded).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds type information for Files.
	TypesInfo *types.Info
	// Pkgs holds every loaded package in a RunProgram pass, whose Files,
	// Pkg and TypesInfo are unset.
	Pkgs   []*Package
	report func(Diagnostic)
}

// Report emits a diagnostic.
func (p *Pass) Report(d Diagnostic) { p.report(d) }

// Reportf emits a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Pos
	// Message states the violated invariant.
	Message string
	// Analyzer is the reporting analyzer's name (filled by the runner).
	Analyzer string
	fixed    bool // the analyzer is Fixed
}

// A Package is one type-checked unit of the program under analysis.
type Package struct {
	// Path is the package's import path.
	Path string
	// Name is the package name.
	Name string
	// Dir is the directory holding the package's files.
	Dir string
	// Files holds the parsed non-test sources.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info is the package's type information.
	Info *types.Info
}
