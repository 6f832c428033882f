package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Names spells packages, types and objects as the analyzers' tables key
// them: a package by its import path below Root ("" for Root itself, the
// whole path outside it), a named type or a pointer to one path.Type, a
// member path.Type.Name, and any other type as go/types does.
type Names struct{ Root string }

// Rel spells the package at path.
func (n Names) Rel(path string) string {
	if path == n.Root {
		return ""
	}
	return strings.TrimPrefix(path, n.Root+"/")
}

// named is t, or what t points to, if that is a named type.
func named(t types.Type) *types.Named {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	nt, _ := types.Unalias(t).(*types.Named)
	return nt
}

// Type spells t.
func (n Names) Type(t types.Type) string {
	if nt := named(t); nt != nil && nt.Obj().Pkg() != nil {
		return n.Rel(nt.Obj().Pkg().Path()) + "." + nt.Obj().Name()
	}
	return types.TypeString(t, nil)
}

// TypeArgs spells the type arguments of an instantiated named type or a
// pointer to one, [path.Type,...], and is "" for any other type.
func (n Names) TypeArgs(t types.Type) string {
	nt := named(t)
	if nt == nil || nt.TypeArgs().Len() == 0 {
		return ""
	}
	args := make([]string, nt.TypeArgs().Len())
	for i := range args {
		args[i] = n.Type(nt.TypeArgs().At(i))
	}
	return "[" + strings.Join(args, ",") + "]"
}

// Member names a selected method by the type declaring it, with the type
// arguments it is instantiated with, and a field by the type it is selected
// through; it is "" for any other expression.
func (n Names) Member(info *types.Info, e ast.Expr) string {
	s, _ := ast.Unparen(e).(*ast.SelectorExpr)
	sel := info.Selections[s]
	if sel == nil {
		return ""
	} else if fn, ok := sel.Obj().(*types.Func); ok {
		return n.Type(fn.Origin().Signature().Recv().Type()) + n.TypeArgs(fn.Signature().Recv().Type()) + "." + fn.Name()
	}
	return n.Type(sel.Recv()) + "." + sel.Obj().Name()
}

// Object spells a package-level object path.Name and a method by the
// generic type declaring it, path.Type.Method, alike for a package checked
// from source and its import from export data.
func (n Names) Object(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		return n.Type(fn.Origin().Signature().Recv().Type()) + "." + fn.Name()
	} else if obj.Pkg() == nil {
		return obj.Name()
	}
	return n.Rel(obj.Pkg().Path()) + "." + obj.Name()
}

// Field spells the field a selection path reaches from t (a literal key's
// path is its one index) by the named struct declaring it, path.Type.field;
// it is "" for a field of an unnamed struct.
func (n Names) Field(t types.Type, index []int) string {
	for i, x := range index {
		if p, ok := types.Unalias(t).(*types.Pointer); ok {
			t = p.Elem()
		}
		s, ok := t.Underlying().(*types.Struct)
		if !ok {
			return ""
		} else if i < len(index)-1 {
			t = s.Field(x).Type()
		} else if named(t) != nil {
			return n.Type(t) + "." + s.Field(x).Name()
		}
	}
	return ""
}

// Callee is the package path and name of the package-level function call
// calls through a package selector, or "", "".
func Callee(info *types.Info, call *ast.CallExpr) (path, name string) {
	if s, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, ok := info.Uses[s.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Signature().Recv() == nil {
			return fn.Pkg().Path(), fn.Name()
		}
	}
	return "", ""
}
