package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// MapRange guards the byte-identity contract against Go's randomized
// map iteration order. In the shuffle engine, the driver packages and
// the serving tiers, anything that flows out of a
// range-over-map in iteration order — emitted records, encoded wire
// bytes, appended result slices, float accumulations — produces
// different bytes on different runs. The analyzer flags every
// range-over-map in those packages unless the loop body is provably
// order-insensitive: writes into other maps, integer accumulation
// (commutative in exact arithmetic, unlike float rounding), deletes,
// and appends to slices that the enclosing function later sorts.
var MapRange = &Analyzer{
	Name: "maprange",
	Doc: "no order-dependent iteration over maps on paths that feed Emit, wire " +
		"encoding, or JSON responses: collect keys, sort, then iterate",
	AppliesTo: inPackages(
		"internal/mapreduce",
		"internal/driver", "internal/pgbj", "internal/hbrj", "internal/naive",
		"internal/zknn", "internal/topk", "internal/rangejoin",
		"internal/serve", "internal/shard",
		"internal/obs",
	),
	Run: runMapRange,
}

func runMapRange(pass *Pass) {
	for _, f := range pass.Files {
		funcBodies(f, func(decl *ast.FuncDecl, body *ast.BlockStmt) {
			sorted := sortedSlices(pass, body)
			ast.Inspect(body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := pass.Info.Types[rs.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				c := &mapRangeCheck{pass: pass, loop: rs, sorted: sorted}
				if reason := c.bodyReason(rs.Body); reason != "" {
					pass.Reportf(rs.Pos(), "range over map has order-dependent effect (%s): iteration order is randomized and breaks byte-identity; iterate sorted keys instead", reason)
				}
				return true
			})
		})
	}
}

// sortedSlices collects the objects of every slice passed to a sort
// call (sort.*, slices.Sort*) anywhere in the function: appending to
// one of these inside a map loop is order-safe because the sort
// re-establishes a canonical order before use.
func sortedSlices(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if obj := rootIdentObj(pass.Info, ast.Unparen(arg)); obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// mapRangeCheck validates one range-over-map body statement by
// statement. The empty reason string means order-safe.
type mapRangeCheck struct {
	pass   *Pass
	loop   *ast.RangeStmt
	sorted map[types.Object]bool
}

// bodyReason returns "" when every statement in the block is
// order-insensitive, else a one-phrase description of the first
// offender.
func (c *mapRangeCheck) bodyReason(b *ast.BlockStmt) string {
	for _, s := range b.List {
		if r := c.stmtReason(s); r != "" {
			return r
		}
	}
	return ""
}

func (c *mapRangeCheck) stmtReason(s ast.Stmt) string {
	switch s := s.(type) {
	case *ast.AssignStmt:
		return c.assignReason(s)
	case *ast.IncDecStmt:
		if isBareIdent(s.X) || c.localTo(s.X) {
			if isIntegerType(c.pass.Info.Types[s.X].Type) {
				return ""
			}
			return fmt.Sprintf("%s on non-integer accumulator", s.Tok)
		}
		if isIntegerType(c.pass.Info.Types[s.X].Type) {
			return ""
		}
		return "non-integer increment through a field path"
	case *ast.IfStmt:
		if r := c.exprReason(s.Cond); r != "" {
			return r
		}
		if s.Init != nil {
			if r := c.stmtReason(s.Init); r != "" {
				return r
			}
		}
		if r := c.bodyReason(s.Body); r != "" {
			return r
		}
		if s.Else != nil {
			return c.stmtReason(s.Else)
		}
		return ""
	case *ast.BlockStmt:
		return c.bodyReason(s)
	case *ast.ForStmt:
		for _, sub := range []ast.Stmt{s.Init, s.Post} {
			if sub != nil {
				if r := c.stmtReason(sub); r != "" {
					return r
				}
			}
		}
		if s.Cond != nil {
			if r := c.exprReason(s.Cond); r != "" {
				return r
			}
		}
		return c.bodyReason(s.Body)
	case *ast.RangeStmt:
		if r := c.exprReason(s.X); r != "" {
			return r
		}
		return c.bodyReason(s.Body)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if builtinName(c.pass.Info, call) == "delete" {
				return ""
			}
			return "call to " + callName(call)
		}
		return "expression statement"
	case *ast.BranchStmt:
		if s.Tok == token.CONTINUE || s.Tok == token.BREAK {
			return ""
		}
		return s.Tok.String() + " out of the loop"
	case *ast.DeclStmt:
		return ""
	case *ast.ReturnStmt:
		return "return from inside the loop picks a random element"
	case *ast.SwitchStmt:
		if s.Tag != nil {
			if r := c.exprReason(s.Tag); r != "" {
				return r
			}
		}
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				for _, sub := range cc.Body {
					if r := c.stmtReason(sub); r != "" {
						return r
					}
				}
			}
		}
		return ""
	default:
		return fmt.Sprintf("%T in loop body", s)
	}
}

// assignReason classifies one assignment inside the loop.
func (c *mapRangeCheck) assignReason(s *ast.AssignStmt) string {
	for _, rhs := range s.Rhs {
		if r := c.exprReason(rhs); r != "" {
			return r
		}
	}
	switch s.Tok {
	case token.DEFINE:
		return "" // fresh locals scoped to one iteration
	case token.ASSIGN:
		for i, lhs := range s.Lhs {
			if r := c.plainAssignReason(lhs, rhsFor(s, i)); r != "" {
				return r
			}
		}
		return ""
	default: // op-assign: += etc — commutative only over integers
		lhs := s.Lhs[0]
		if !isBareIdent(lhs) && !c.mapIndexLHS(lhs) {
			if !c.localTo(lhs) {
				return "compound assignment through a field path"
			}
		}
		switch s.Tok {
		case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN, token.MUL_ASSIGN:
			if isIntegerType(c.pass.Info.Types[lhs].Type) {
				return ""
			}
			return fmt.Sprintf("%s accumulation on %s is iteration-order dependent", s.Tok, typeString(c.pass, c.pass.Info.Types[lhs].Type))
		default:
			return s.Tok.String() + " is not commutative"
		}
	}
}

// rhsFor pairs LHS i with its RHS (nil for tuple assignment).
func rhsFor(s *ast.AssignStmt, i int) ast.Expr {
	if len(s.Rhs) == len(s.Lhs) {
		return s.Rhs[i]
	}
	return nil
}

// plainAssignReason classifies `lhs = rhs` with Tok == ASSIGN.
func (c *mapRangeCheck) plainAssignReason(lhs, rhs ast.Expr) string {
	switch {
	case isBlank(lhs):
		return ""
	case c.mapIndexLHS(lhs):
		return "" // writes into a map are order-insensitive
	case c.localTo(lhs):
		return "" // loop-local storage
	case isBareIdent(lhs):
		// `s = append(s, ...)` survives if s is sorted later.
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && builtinName(c.pass.Info, call) == "append" {
			obj := rootIdentObj(c.pass.Info, lhs)
			if obj != nil && c.sorted[obj] {
				return ""
			}
			return fmt.Sprintf("append to %s in map order without a later sort", exprName(lhs))
		}
		return fmt.Sprintf("last-writer-wins assignment to %s", exprName(lhs))
	default:
		return fmt.Sprintf("write through %s in map order", exprName(lhs))
	}
}

// mapIndexLHS reports whether lhs indexes into a map.
func (c *mapRangeCheck) mapIndexLHS(lhs ast.Expr) bool {
	ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return false
	}
	tv, ok := c.pass.Info.Types[ix.X]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// localTo reports whether the lvalue's root object is declared inside
// the loop body (per-iteration storage, invisible outside).
func (c *mapRangeCheck) localTo(e ast.Expr) bool {
	obj := rootIdentObj(c.pass.Info, e)
	return obj != nil && obj.Pos() >= c.loop.Pos() && obj.Pos() <= c.loop.End()
}

// exprReason scans an expression for effectful calls: any call other
// than a handful of pure builtins could emit, encode, or write in
// iteration order.
func (c *mapRangeCheck) exprReason(e ast.Expr) string {
	var reason string
	ast.Inspect(e, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch builtinName(c.pass.Info, call) {
		case "len", "cap", "append", "min", "max", "make", "new", "delete", "copy":
			return true
		}
		if tv, ok := c.pass.Info.Types[call.Fun]; ok && tv.IsType() {
			return true // conversion
		}
		reason = "call to " + callName(call)
		return false
	})
	return reason
}

// isBlank reports whether e is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}

// callName renders a call's function expression for messages.
func callName(call *ast.CallExpr) string {
	return exprName(call.Fun)
}

// exprName renders a short dotted name for an expression.
func exprName(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprName(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprName(x.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprName(x.X)
	case *ast.CallExpr:
		return exprName(x.Fun) + "()"
	default:
		return "expression"
	}
}
