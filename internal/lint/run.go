package lint

import (
	"fmt"
	"io"
	"sort"
)

// Run loads the packages matching patterns, executes every analyzer on
// the packages its filter admits, applies //lint:allow suppression, and
// returns the surviving diagnostics in source order. Malformed allow
// directives come back as diagnostics of the pseudo-analyzer
// "directive".
func Run(analyzers []*Analyzer, patterns ...string) ([]Diagnostic, error) {
	pkgs, err := Load(patterns...)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }

	var dirs []directive
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			dirs = append(dirs, parseDirectives(pkg.Fset, f, report)...)
		}
	}

	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.AppliesTo != nil && !a.AppliesTo(pkg.PkgPath) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Report:   report,
			}
			a.Run(pass)
		}
	}

	kept := diags[:0]
	for _, d := range diags {
		if !suppressed(d, dirs) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return kept, nil
}

// RunCLI is the command-line driver behind cmd/knnlint: run the given
// analyzers over the patterns (default ./...), print findings to w, and
// return the process exit code (0 clean, 1 findings, 2 load failure).
func RunCLI(w io.Writer, analyzers []*Analyzer, patterns []string) int {
	diags, err := Run(analyzers, patterns...)
	if err != nil {
		fmt.Fprintf(w, "knnlint: %v\n", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintf(w, "%s: %s: %s\n", d.Pos, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(w, "knnlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
