package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GobSpec checks that every struct registered through
// mapreduce.DefineKind is wire-safe: the spec crosses the
// coordinator→worker process boundary as a gob blob, and gob's failure
// modes are silent (unexported fields are dropped, nil and empty slices
// collapse, funcs and chans refuse to encode only at runtime). Both
// silent modes have bitten here: a since-removed LSH join's hash tables
// lost their unexported fields, and zknn's shift slices came back nil
// where the in-process engine saw empty. The analyzer walks the DefineKind type argument's full type
// graph and additionally flags nil-comparisons against the spec's slice
// and map fields anywhere in the registering package, because after one
// round-trip nil-vs-empty is no longer a meaningful distinction.
var GobSpec = &Analyzer{
	Name: "gobspec",
	Doc: "structs registered with mapreduce.DefineKind must survive a gob round-trip: " +
		"all fields exported, no func/chan/unsafe.Pointer state, and no nil-checks on " +
		"slice or map fields (gob decodes empty as nil)",
	Run: runGobSpec,
}

func runGobSpec(pass *Pass) {
	// Every instantiation of a function named DefineKind from a package
	// named mapreduce registers its first type argument as a wire spec.
	specs := map[*types.Named]token.Pos{}
	for id, inst := range pass.Info.Instances {
		if id.Name != "DefineKind" {
			continue
		}
		fn, ok := pass.Info.Uses[id].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Name() != "mapreduce" {
			continue
		}
		if inst.TypeArgs.Len() == 0 {
			continue
		}
		if n := namedOrigin(inst.TypeArgs.At(0)); n != nil {
			specs[n] = id.Pos()
		} else {
			// Non-named spec (e.g. a bare struct literal type): walk it
			// directly, anchored at the call.
			walkGobType(pass, inst.TypeArgs.At(0), typeString(pass, inst.TypeArgs.At(0)), id.Pos(), map[types.Type]bool{})
		}
	}
	for spec, pos := range specs {
		walkGobType(pass, spec, spec.Obj().Name(), pos, map[types.Type]bool{})
	}
	if len(specs) > 0 {
		flagNilChecks(pass, specs)
	}
}

// typeString renders a type relative to the pass package for messages.
func typeString(pass *Pass, t types.Type) string {
	return types.TypeString(t, types.RelativeTo(pass.Pkg))
}

// selfCoding reports whether t (or *t) implements gob or binary
// self-encoding; such types are opaque to gob's reflection walk and
// need no field inspection.
func selfCoding(t types.Type) bool {
	for _, name := range []string{"GobEncode", "GobDecode", "MarshalBinary", "UnmarshalBinary"} {
		if m, _, _ := types.LookupFieldOrMethod(t, true, nil, name); m != nil {
			if _, isFunc := m.(*types.Func); isFunc {
				return true
			}
		}
	}
	return false
}

// walkGobType recursively validates the type graph rooted at t,
// reporting every gob hazard against the DefineKind call at pos. path
// names the offending field chain ("pbjSpec.Opts.Hook") so the message
// survives the indirection.
func walkGobType(pass *Pass, t types.Type, path string, pos token.Pos, seen map[types.Type]bool) {
	if seen[t] {
		return
	}
	seen[t] = true
	if selfCoding(t) {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			fpath := path + "." + f.Name()
			if !f.Exported() {
				pass.Reportf(pos, "gob spec field %s is unexported: gob drops it silently, the worker rebuilds the job from a zero value", fpath)
				continue
			}
			walkGobType(pass, f.Type(), fpath, pos, seen)
		}
	case *types.Slice:
		walkGobType(pass, u.Elem(), path+"[]", pos, seen)
	case *types.Array:
		walkGobType(pass, u.Elem(), path+"[n]", pos, seen)
	case *types.Pointer:
		walkGobType(pass, u.Elem(), path, pos, seen)
	case *types.Map:
		walkGobType(pass, u.Key(), path+"(key)", pos, seen)
		walkGobType(pass, u.Elem(), path+"(value)", pos, seen)
	case *types.Signature:
		pass.Reportf(pos, "gob spec field %s has func type %s: closures cannot cross the process boundary, carry constructor inputs instead", path, typeString(pass, t))
	case *types.Chan:
		pass.Reportf(pos, "gob spec field %s has chan type %s: channels cannot cross the process boundary", path, typeString(pass, t))
	case *types.Interface:
		pass.Reportf(pos, "gob spec field %s is an interface (%s): every concrete type needs gob.Register and an identical registry in the worker; prefer a concrete field", path, typeString(pass, t))
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			pass.Reportf(pos, "gob spec field %s is unsafe.Pointer: not encodable", path)
		}
	}
}

// flagNilChecks reports `x.F == nil` / `x.F != nil` where x is a spec
// type and F a slice or map field: the distinction the comparison draws
// does not survive a gob round-trip.
func flagNilChecks(pass *Pass, specs map[*types.Named]token.Pos) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			var sel *ast.SelectorExpr
			switch {
			case isNilIdent(pass.Info, be.Y):
				sel, _ = ast.Unparen(be.X).(*ast.SelectorExpr)
			case isNilIdent(pass.Info, be.X):
				sel, _ = ast.Unparen(be.Y).(*ast.SelectorExpr)
			}
			if sel == nil {
				return true
			}
			s, ok := pass.Info.Selections[sel]
			if !ok || s.Kind() != types.FieldVal {
				return true
			}
			recv := namedOrigin(s.Recv())
			if recv == nil {
				return true
			}
			if _, isSpec := specs[recv]; !isSpec {
				return true
			}
			switch s.Obj().Type().Underlying().(type) {
			case *types.Slice, *types.Map:
				pass.Reportf(be.Pos(), "nil check on gob-roundtripped field %s.%s: gob decodes empty %s as nil, compare len()==0 instead",
					recv.Obj().Name(), s.Obj().Name(), kindWord(s.Obj().Type()))
			}
			return true
		})
	}
}

// kindWord names slice/map for the nil-check message.
func kindWord(t types.Type) string {
	if _, ok := t.Underlying().(*types.Map); ok {
		return "maps"
	}
	return "slices"
}
