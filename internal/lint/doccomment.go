package lint

import (
	"go/ast"
	"strings"
)

// exportedDocPaths lists the package-path suffixes (module root included
// as "knnjoin") whose exported identifiers must all carry doc comments —
// the API-bearing packages, this lint package included. Everything else
// only needs a package comment.
var exportedDocPaths = map[string]bool{
	"knnjoin":            true,
	"internal/mapreduce": true,
	"internal/driver":    true,
	"internal/dfs":       true,
	"internal/codec":     true,
	"internal/vector":    true,
	"internal/grouping":  true,
	"internal/serve":     true,
	"internal/vindex":    true,
	"internal/planner":   true,
	"internal/shard":     true,
	"internal/lint":      true,
	"internal/obs":       true,
}

// DocComment is the documentation gate, the one implementation of the
// doc rules, run by cmd/knnlint with the rest of the suite. Rule one:
// every package carries a package comment on at least one non-test
// file. Rule two: in the API-bearing packages, every exported
// identifier has a doc comment (a comment on a const/var block covers
// its members, the stdlib convention for enum-style groups).
var DocComment = &Analyzer{
	Name: "doccomment",
	Doc: "every package has a package comment; exported identifiers in the " +
		"API-bearing packages (module root, runtime core under internal/) have " +
		"doc comments",
	Run: runDocComment,
}

// wantsExportedDocs reports whether the package must document every
// exported identifier. Single-segment paths are fixture packages from
// the analysistest harness (and the module root), which opt in so the
// rule stays testable.
func wantsExportedDocs(pkgPath string) bool {
	if !strings.Contains(pkgPath, "/") {
		return true
	}
	for suffix := range exportedDocPaths {
		if pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix) {
			return true
		}
	}
	return false
}

func runDocComment(pass *Pass) {
	hasPkgDoc := false
	for _, f := range pass.Files {
		if hasDoc(f.Doc) {
			hasPkgDoc = true
			break
		}
	}
	if !hasPkgDoc && len(pass.Files) > 0 {
		pass.Reportf(pass.Files[0].Package, "package %s has no package comment", pass.Pkg.Name())
	}
	if !wantsExportedDocs(pass.Pkg.Path()) {
		return
	}
	for _, f := range pass.Files {
		checkExportedDocs(pass, f)
	}
}

// hasDoc reports whether a doc comment group carries actual text.
func hasDoc(g *ast.CommentGroup) bool {
	return g != nil && strings.TrimSpace(g.Text()) != ""
}

// receiverExported reports whether a method's receiver type is exported
// (methods on unexported types are internal API and exempt).
func receiverExported(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return true
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = x.X
		case *ast.Ident:
			return ast.IsExported(x.Name)
		default:
			return true
		}
	}
}

// checkExportedDocs walks one file and reports exported declarations
// without doc comments.
func checkExportedDocs(pass *Pass, f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || !receiverExported(d) {
				continue
			}
			if !hasDoc(d.Doc) {
				kind := "function"
				if d.Recv != nil {
					kind = "method"
				}
				pass.Reportf(d.Pos(), "exported %s %s has no doc comment", kind, d.Name.Name)
			}
		case *ast.GenDecl:
			switch d.Tok.String() {
			case "type":
				for _, spec := range d.Specs {
					ts := spec.(*ast.TypeSpec)
					if !ts.Name.IsExported() {
						continue
					}
					if !hasDoc(ts.Doc) && !hasDoc(d.Doc) {
						pass.Reportf(ts.Pos(), "exported type %s has no doc comment", ts.Name.Name)
					}
				}
			case "const", "var":
				// A doc comment on the block covers every member.
				if hasDoc(d.Doc) {
					continue
				}
				for _, spec := range d.Specs {
					vs := spec.(*ast.ValueSpec)
					for _, name := range vs.Names {
						if !name.IsExported() {
							continue
						}
						if !hasDoc(vs.Doc) && !hasDoc(vs.Comment) {
							pass.Reportf(name.Pos(), "exported %s %s has no doc comment", d.Tok, name.Name)
						}
					}
				}
			}
		}
	}
}
