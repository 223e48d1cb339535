// Package fusion holds the type-recognition helpers shared by the
// gofusionlint analyzers: resolving the engine's Stream interface,
// resolving callees and result types, and locating packages in a
// type-checked import graph.
package fusion

import (
	"go/ast"
	"go/types"
)

// StreamPkg is the package that declares the engine-wide Stream
// interface (physical.Stream is an alias of it).
const StreamPkg = "gofusion/internal/catalog"

// IsStreamNamed reports whether t (after unaliasing) is the named
// interface gofusion/internal/catalog.Stream.
func IsStreamNamed(t types.Type) bool {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Name() == "Stream" && obj.Pkg() != nil && obj.Pkg().Path() == StreamPkg
}

// StreamInterface returns the catalog.Stream interface type reachable
// from pkg's import graph, or nil when the package (transitively)
// never imports it.
func StreamInterface(pkg *types.Package) *types.Interface {
	cat := findImport(pkg, StreamPkg)
	if cat == nil {
		return nil
	}
	obj := cat.Scope().Lookup("Stream")
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// findImport walks pkg's transitive imports for the given path,
// returning nil when absent. The receiver package itself matches too,
// so analyzers behave identically inside and outside the target
// package.
func findImport(pkg *types.Package, path string) *types.Package {
	if pkg == nil {
		return nil
	}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package) *types.Package
	walk = func(p *types.Package) *types.Package {
		if seen[p] {
			return nil
		}
		seen[p] = true
		if p.Path() == path {
			return p
		}
		for _, imp := range p.Imports() {
			if found := walk(imp); found != nil {
				return found
			}
		}
		return nil
	}
	return walk(pkg)
}

// CalleeObj returns the object called by e's function expression
// (method or function), or nil.
func CalleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		if s, ok := info.Selections[fn]; ok {
			return s.Obj()
		}
		return info.Uses[fn.Sel]
	}
	return nil
}

// IsErrorType reports whether t is the built-in error interface.
func IsErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj() != nil && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}

// ResultTypes returns the result types of the call expression (empty
// when the call's type is unknown).
func ResultTypes(info *types.Info, call *ast.CallExpr) []types.Type {
	tv, ok := info.Types[call]
	if !ok {
		return nil
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		out := make([]types.Type, t.Len())
		for i := 0; i < t.Len(); i++ {
			out[i] = t.At(i).Type()
		}
		return out
	default:
		return []types.Type{t}
	}
}
