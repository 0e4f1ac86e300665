package lint

import (
	"go/ast"
)

// SqrtFree enforces the PR-2 squared-distance contract: under L2 every
// comparison, heap bound, and Theorem-2 window works in squared space,
// and the single square root happens at emit time. A math.Sqrt anywhere
// else in the scan kernels or the reducer hot paths is either a
// correctness hazard (mixing squared and true distances) or a per-row
// performance regression. Legitimate emit/boundary sites carry a
// //lint:allow sqrtfree directive with a one-line justification, so the
// full set of true-distance conversions is greppable.
var SqrtFree = &Analyzer{
	Name: "sqrtfree",
	Doc: "distances stay squared end-to-end: math.Sqrt only at whitelisted emit " +
		"sites (//lint:allow sqrtfree: <why>), never inside scan kernels or " +
		"reducer hot loops",
	AppliesTo: inPackages(
		"internal/vector", "internal/voronoi", "internal/vindex", "internal/driver", "internal/nnheap",
		"internal/pgbj", "internal/hbrj", "internal/naive", "internal/zknn",
		"internal/topk", "internal/rangejoin",
	),
	Run: runSqrtFree,
}

func runSqrtFree(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || fn.Name() != "Sqrt" || fn.Pkg() == nil || fn.Pkg().Path() != "math" {
				return true
			}
			pass.Reportf(call.Pos(), "math.Sqrt on a distance path: the squared-L2 contract keeps distances squared until emit; move the sqrt to the emit site or whitelist this conversion with a justification")
			return true
		})
	}
}
