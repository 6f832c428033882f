package deadexport

import (
	"go/ast"
	"go/token"
	"go/types"

	"mqsspulse/tools/mqssvet/analysis"
)

// fieldUse holds, by analysis.Names.Field, the fields non-test Go writes —
// a keyed literal's keys and a plain = or := target — and those it reads:
// every other selection, and every field of a struct compared with == or
// != or keying a map, or of a type the root facade aliases (its callers are
// not in the program).
type fieldUse struct {
	names         analysis.Names
	writes, reads map[string]bool
}

// collect records pkg's writes and reads; root is whether pkg is the facade.
func (u fieldUse) collect(pkg *analysis.Package, root bool) {
	for _, tv := range pkg.Info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			u.readAll(m.Key(), true)
		}
	}
	for _, name := range pkg.Types.Scope().Names() {
		if tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName); ok && root && tn.IsAlias() {
			u.readAll(tn.Type(), false)
		}
	}
	for _, f := range pkg.Files {
		targets := map[ast.Expr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					targets[ast.Unparen(l)] = n.Tok == token.ASSIGN || n.Tok == token.DEFINE
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					u.readAll(pkg.Info.TypeOf(n.X), true)
					u.readAll(pkg.Info.TypeOf(n.Y), true)
				}
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if _, index, _ := types.LookupFieldOrMethod(pkg.Info.TypeOf(n), true, pkg.Types, types.ExprString(kv.Key)); len(index) == 1 {
							u.writes[u.names.Field(pkg.Info.TypeOf(n), index)] = true
						}
					}
				}
			case *ast.SelectorExpr:
				if sel := pkg.Info.Selections[n]; sel != nil && sel.Kind() == types.FieldVal {
					m := u.reads
					if targets[n] {
						m = u.writes
					}
					m[u.names.Field(sel.Recv(), sel.Index())] = true
				}
			}
			return true
		})
	}
}

// readAll marks t's fields read, and with deep those of the structs and
// arrays it holds by value, which == compares too.
func (u fieldUse) readAll(t types.Type, deep bool) {
	switch s := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < s.NumFields(); i++ {
			u.reads[u.names.Field(t, []int{i})] = true
			if deep {
				u.readAll(s.Field(i).Type(), true)
			}
		}
	case *types.Array:
		if deep {
			u.readAll(s.Elem(), true)
		}
	}
}

// report flags each field of pkg's named structs that is written and never
// read, and each function whose only effect is to set such fields. An
// embedded field is read through its promoted members, a tagged one by
// reflection.
func (u fieldUse) report(pass *analysis.Pass, pkg *analysis.Package, allow map[string]string) {
	dead := map[string]bool{}
	for _, name := range pkg.Types.Scope().Names() {
		tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName)
		if s, isStruct := pkg.Types.Scope().Lookup(name).Type().Underlying().(*types.Struct); ok && isStruct && !tn.IsAlias() {
			for i := 0; i < s.NumFields(); i++ {
				k := u.names.Field(tn.Type(), []int{i})
				if f := s.Field(i); !f.Anonymous() && s.Tag(i) == "" && u.writes[k] && !u.reads[k] && allow[k] == "" {
					dead[k] = true
					pass.Reportf(f.Pos(), "field %s.%s.%s is written and never read: delete it, give it a reader, or allowlist it with a reason", pkg.Name, name, f.Name())
				}
			}
		}
	}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && u.setsOnly(pkg.Info, fd.Body, dead) {
				pass.Reportf(fd.Name.Pos(), "%s.%s only sets fields that are never read: delete it with them", pkg.Name, fd.Name.Name)
			}
		}
	}
}

// setsOnly reports whether body is an option: one plain assignment of dead
// fields, or a return of a function literal whose body is.
func (u fieldUse) setsOnly(info *types.Info, body *ast.BlockStmt, dead map[string]bool) bool {
	if len(body.List) != 1 {
		return false
	} else if r, ok := body.List[0].(*ast.ReturnStmt); ok && len(r.Results) == 1 {
		lit, ok := r.Results[0].(*ast.FuncLit)
		return ok && u.setsOnly(info, lit.Body, dead)
	}
	a, ok := body.List[0].(*ast.AssignStmt)
	if !ok || a.Tok != token.ASSIGN {
		return false
	}
	for _, l := range a.Lhs {
		s, _ := ast.Unparen(l).(*ast.SelectorExpr)
		if sel := info.Selections[s]; sel == nil || !dead[u.names.Field(sel.Recv(), sel.Index())] {
			return false
		}
	}
	return true
}
