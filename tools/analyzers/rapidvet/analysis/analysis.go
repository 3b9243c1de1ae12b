// Package analysis is a standard-library-only mirror of the core types of
// golang.org/x/tools/go/analysis, sized to what the rapidvet invariant
// suite needs: an Analyzer with a Run function over a type-checked
// package, and positioned Diagnostics.
//
// Why a mirror instead of the real thing: the suite must run in CI with
// no network beyond `go mod download`, and this repository's toolchain
// image carries no module cache for x/tools, so the checker (see
// ../checker) loads packages with `go list -json -export -deps` — gc
// export data plus source type-checking, the same trick the original
// nondeterminism linter used — and drives Analyzers through this API.
// It is a source-compatible subset of go/analysis (v0.24.0: Analyzer,
// Pass, Diagnostic, analysistest): the field and function shapes match
// x/tools on purpose, so that where the real module can be required each
// analyzer is ported by swapping the import path and deleting this
// package, not by rewriting the analyses.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command
	// line. It must be a valid Go identifier.
	Name string

	// Doc is the one-paragraph description printed by -help: first the
	// invariant the analyzer enforces, then where the runtime proved that
	// invariant dynamically before it was encoded here.
	Doc string

	// DefaultPackages restricts where the analyzer runs when the checker
	// is invoked over a whole tree (./...): many invariants are contracts
	// of specific packages (wake-token ordering belongs to the executor,
	// plan-byte determinism to the plan producers) and would be noise
	// elsewhere. Empty means every package. Matching is by exact import
	// path or by path suffix (so corpora and forks of the repo keep
	// working when the module path differs). The -scope=off flag and
	// analysistest ignore the restriction.
	DefaultPackages []string

	// Run executes the analyzer on one package. Diagnostics go through
	// pass.Report*; the result value is unused by this suite (it exists
	// for x/tools signature compatibility).
	Run func(*Pass) (any, error)
}

func (a *Analyzer) String() string { return a.Name }

// Pass is the interface between one analyzer run and the checker: one
// type-checked, error-free package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report publishes one diagnostic. The checker owns suppression
	// (//vet:ok, //det:ok) and ordering; analyzers just report.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ReportRangef reports a formatted diagnostic at the start of the node.
func (p *Pass) ReportRangef(n ast.Node, format string, args ...any) {
	p.Reportf(n.Pos(), format, args...)
}

// Diagnostic is one finding: a position and a message.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}
