// Package lint is the project-specific static-analysis suite behind
// cmd/knnlint. It machine-checks the invariants every layer of this
// repository leans on but the compiler cannot see — the rules that, when
// silently violated, produced the historical bug classes the analyzers
// are named after:
//
//   - gobspec: structs registered through mapreduce.DefineKind must be
//     wire-safe (the PR-7 gob hazards),
//   - maprange: no order-dependent iteration over maps on paths that
//     feed Emit / wire encoding / JSON responses (byte-identity),
//   - sqrtfree: distances stay squared until emit (the PR-2 contract),
//   - querypure: vindex query paths never write shared index state
//     (the PR-4 data race),
//   - atomicsnap: state published via atomic.Pointer snapshots is never
//     mutated after publication or shadowed beside the pointer,
//   - doccomment: the documentation gates (package comments everywhere,
//     exported-identifier docs in the API-bearing packages).
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis
// API shape (Analyzer, Pass, analysistest-style fixtures) but is built
// on the standard library only: packages are enumerated with `go list
// -deps -export -json`, target sources are type-checked against the
// toolchain's export data, and each analyzer receives parsed files plus
// full type information.
//
// Findings are suppressed site-by-site with a justified directive:
//
//	//lint:allow <analyzer>: <one-line justification>
//
// placed on the offending line or the line directly above it. A
// directive without a justification is itself an error, so the
// whitelist stays reviewable.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one invariant checker: a name (used in
// diagnostics and //lint:allow directives), a one-paragraph doc string,
// an optional package filter applied by the driver, and the Run
// function executed once per loaded package.
type Analyzer struct {
	// Name identifies the analyzer in output and allow directives.
	Name string
	// Doc is the one-paragraph description printed by `knnlint -help`.
	Doc string
	// AppliesTo restricts which packages the driver runs the analyzer
	// on; nil means every loaded package. Fixture tests bypass it.
	AppliesTo func(pkgPath string) bool
	// Run inspects one package through the Pass and reports findings.
	Run func(*Pass)
}

// A Pass carries one package's parsed syntax and type information to an
// analyzer's Run function, plus the Report sink for findings.
type Pass struct {
	// Analyzer is the checker this pass executes.
	Analyzer *Analyzer
	// Fset maps token positions for every file in the pass.
	Fset *token.FileSet
	// Files holds the package's parsed non-test Go files.
	Files []*ast.File
	// Pkg is the type-checked package object.
	Pkg *types.Package
	// Info carries the type-checker's fact tables for Files.
	Info *types.Info
	// Report records one finding; the driver handles sorting,
	// directive suppression, and rendering.
	Report func(Diagnostic)
}

// Reportf records a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding: which analyzer fired, where, and why.
type Diagnostic struct {
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// Pos is the finding's resolved file position.
	Pos token.Position
	// Message states the violated invariant and the suggested fix.
	Message string
}

// All lists every analyzer in the suite, in the order the driver runs
// them.
var All = []*Analyzer{
	GobSpec,
	MapRange,
	SqrtFree,
	QueryPure,
	AtomicSnap,
	DocComment,
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// inPackages builds an AppliesTo filter matching the given package-path
// suffixes ("internal/pgbj" matches "knnjoin/internal/pgbj" and any
// module prefix; a bare module path matches exactly).
func inPackages(suffixes ...string) func(string) bool {
	return func(pkgPath string) bool {
		for _, s := range suffixes {
			if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
				return true
			}
		}
		return false
	}
}
