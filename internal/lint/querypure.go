package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// queryPureRoots names the vindex.Index entry points that concurrent
// queries hit: the public query API, the batch layer, and the exported
// route.go walk pieces the shard router replays. Everything reachable
// from these inside the package must be read-only on the receiver —
// mutating shared index state from a query was exactly the PR-4 data
// race (per-query counters lived on the Index). A root the package no
// longer declares is itself a finding: a renamed entry point would
// otherwise drop out of the check silently.
var queryPureRoots = map[string]bool{
	"KNN": true, "Range": true,
	"KNNWithStats": true, "RangeWithStats": true,
	"KNNBatch": true, "KNNBatchWithStats": true,
	"AssignQuery": true, "Walk": true, "StartKNN": true, "KNNStep": true,
	"FinishKNN": true, "RangeWindows": true, "RangeStep": true,
	"PartitionLen": true, "Pivots": true, "Metric": true,
	"Len": true, "Dim": true, "NumPartitions": true,
}

// QueryPure checks that the vindex query path never writes receiver
// state. It builds the intra-package call graph over Index methods,
// marks everything reachable from the query-path roots, and flags any
// assignment, increment, or alias-mediated write whose storage roots at
// the receiver. Per-query accounting belongs in returned Stats values
// (the PR-4 fix), not on the shared index.
var QueryPure = &Analyzer{
	Name: "querypure",
	Doc: "query-path methods on vindex.Index (KNNWithStats, RangeWithStats, the " +
		"route.go walk pieces, and everything they call) must not write receiver " +
		"fields: queries run concurrently on one shared index",
	AppliesTo: inPackages("internal/vindex"),
	Run:       runQueryPure,
}

// indexMethod is one method declared on Index, with its receiver object
// for write-rooting checks.
type indexMethod struct {
	decl *ast.FuncDecl
	recv types.Object
}

func runQueryPure(pass *Pass) {
	if pass.Pkg.Name() != "vindex" {
		return
	}
	methods := map[string]*indexMethod{}
	for _, f := range pass.Files {
		funcBodies(f, func(decl *ast.FuncDecl, _ *ast.BlockStmt) {
			if decl.Recv == nil || len(decl.Recv.List) == 0 {
				return
			}
			named := namedOrigin(pass.Info.Types[decl.Recv.List[0].Type].Type)
			if named == nil || named.Obj().Name() != "Index" {
				return
			}
			m := &indexMethod{decl: decl}
			if names := decl.Recv.List[0].Names; len(names) > 0 {
				m.recv = pass.Info.ObjectOf(names[0])
			}
			methods[decl.Name.Name] = m
		})
	}

	// Reachability over the intra-package receiver call graph: a call
	// `ix.helper(...)` inside a query-path method pulls helper into the
	// checked set.
	reach := map[string]bool{}
	var mark func(name string)
	mark = func(name string) {
		m, ok := methods[name]
		if !ok || reach[name] {
			return
		}
		reach[name] = true
		ast.Inspect(m.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if s, ok := pass.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				if namedOrigin(s.Recv()) != nil && namedOrigin(s.Recv()).Obj().Name() == "Index" {
					mark(sel.Sel.Name)
				}
			}
			return true
		})
	}
	var missing []string
	for name := range queryPureRoots {
		if _, ok := methods[name]; !ok {
			missing = append(missing, name)
		}
		mark(name)
	}
	if len(missing) > 0 && len(pass.Files) > 0 {
		sort.Strings(missing)
		pass.Reportf(pass.Files[0].Name.Pos(), "query-path roots %s are not methods of Index: update queryPureRoots, or the renamed entry points go unchecked", strings.Join(missing, ", "))
	}

	for name := range reach {
		checkPureMethod(pass, methods[name])
	}
}

// checkPureMethod flags every write whose storage roots at the method's
// receiver, directly or through a one-hop alias of a receiver-reachable
// pointer, slice, or map.
func checkPureMethod(pass *Pass, m *indexMethod) {
	if m.recv == nil || m.decl.Body == nil {
		return
	}
	name := m.decl.Name.Name

	// tainted holds locals that alias receiver-reachable mutable
	// storage: `sum := ix.sum` makes sum.X = ... a receiver write too.
	tainted := map[types.Object]bool{m.recv: true}
	rootsAtReceiver := func(e ast.Expr) bool {
		if isBareIdent(e) {
			return false // rebinding a local never touches shared state
		}
		obj := rootIdentObj(pass.Info, e)
		return obj != nil && tainted[obj]
	}

	// Two passes so aliases of aliases settle without a full fixpoint
	// (the query path never nests deeper in practice).
	for i := 0; i < 2; i++ {
		ast.Inspect(m.decl.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for j, lhs := range as.Lhs {
				if j >= len(as.Rhs) {
					break
				}
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				rhs := ast.Unparen(as.Rhs[j])
				if _, isCall := rhs.(*ast.CallExpr); isCall {
					continue // results of calls are fresh values
				}
				obj := pass.Info.ObjectOf(id)
				src := rootIdentObj(pass.Info, rhs)
				if obj == nil || src == nil || !tainted[src] || src == obj {
					continue
				}
				switch pass.Info.Types[as.Rhs[j]].Type.Underlying().(type) {
				case *types.Pointer, *types.Slice, *types.Map:
					tainted[obj] = true
				}
			}
			return true
		})
	}

	ast.Inspect(m.decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if rootsAtReceiver(lhs) {
					pass.Reportf(lhs.Pos(), "query-path method %s writes receiver state %s: queries share one Index across goroutines, return per-query values instead", name, exprName(lhs))
				}
			}
		case *ast.IncDecStmt:
			if rootsAtReceiver(s.X) {
				pass.Reportf(s.Pos(), "query-path method %s mutates receiver counter %s: per-query accounting belongs in Stats (the PR-4 race class)", name, exprName(s.X))
			}
		}
		return true
	})
}
