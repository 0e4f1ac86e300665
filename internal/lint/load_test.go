package lint

import (
	"strings"
	"testing"
)

// TestLoadTypeChecks exercises the real loader pipeline — go list
// -export, source parsing, type-checking against export data — on this
// package itself, and pins that the full suite is clean on it (knnlint
// gates the whole repo in CI; the lint package must hold itself to the
// same rules).
func TestLoadTypeChecks(t *testing.T) {
	pkgs, err := Load("knnjoin/internal/lint")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.Types == nil || p.Info == nil || len(p.Files) == 0 {
		t.Fatalf("package %s loaded without types or syntax", p.PkgPath)
	}
	if p.Types.Name() != "lint" {
		t.Fatalf("loaded package named %q, want lint", p.Types.Name())
	}
	// Cross-package types must resolve through export data: the loader
	// itself uses go/types, so the type-checked package's imports
	// include it.
	found := false
	for _, imp := range p.Types.Imports() {
		if imp.Path() == "go/types" {
			found = true
		}
	}
	if !found {
		t.Error("import go/types not resolved through export data")
	}
}

// TestSuiteCleanOnLintPackage runs every analyzer through the public
// Run entry point on this package and requires zero findings — the
// same invocation shape cmd/knnlint uses.
func TestSuiteCleanOnLintPackage(t *testing.T) {
	diags, err := Run(All, "knnjoin/internal/lint")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s: %s: %s", d.Pos, d.Analyzer, d.Message)
	}
}

// TestRunCLIUnknownPattern pins the loader's error path: a bad pattern
// must surface as a load failure (exit 2), not a silent clean run.
func TestRunCLIUnknownPattern(t *testing.T) {
	var sb strings.Builder
	if code := RunCLI(&sb, All, []string{"./doesnotexist/..."}); code != 2 {
		t.Fatalf("RunCLI on bad pattern = %d, want 2 (output: %s)", code, sb.String())
	}
}

// TestRepositoryIsFullyDocumented runs the doccomment analyzer over the
// whole module, so `go test ./...` holds the doc rules without the lint
// sweep: every package carries a comment and the API-bearing packages
// document every exported identifier.
func TestRepositoryIsFullyDocumented(t *testing.T) {
	var sb strings.Builder
	if code := RunCLI(&sb, []*Analyzer{DocComment}, []string{"knnjoin/..."}); code != 0 {
		t.Fatalf("doccomment on the repository exited %d:\n%s", code, sb.String())
	}
}
