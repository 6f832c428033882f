// Package doccomment requires a doc comment on every exported identifier
// and a package comment on every package — the former standalone
// tools/doclint (PR 3), folded into the multichecker so CI has one
// static-analysis entry point. Within grouped declarations a group doc
// comment covers members that lack their own, the idiomatic style for
// enum-like const blocks. Test files never reach the analyzer (the loader
// parses non-test sources only).
package doccomment

import (
	"go/ast"
	"strings"

	"mqsspulse/tools/mqssvet/analysis"
)

// Analyzer is the doccomment check.
var Analyzer = &analysis.Analyzer{
	Name: "doccomment",
	Doc:  "exported identifiers and packages must carry doc comments",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	hasPkgDoc := false
	for _, file := range pass.Files {
		if hasDoc(file.Doc) {
			hasPkgDoc = true
			break
		}
	}
	if !hasPkgDoc && len(pass.Files) > 0 {
		pass.Reportf(pass.Files[0].Package, "package %s lacks a package comment", pass.Pkg.Name())
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				lintFunc(pass, d)
			case *ast.GenDecl:
				lintGen(pass, d)
			}
		}
	}
	return nil, nil
}

// lintFunc requires a doc comment on exported functions and on exported
// methods of exported receiver types.
func lintFunc(pass *analysis.Pass, d *ast.FuncDecl) {
	if !d.Name.IsExported() || hasDoc(d.Doc) {
		return
	}
	if d.Recv != nil {
		recv := strings.TrimPrefix(analysis.Names{Root: pass.Pkg.Path()}.Type(pass.TypesInfo.TypeOf(d.Recv.List[0].Type)), ".")
		if !ast.IsExported(recv) {
			return // method unreachable outside the package
		}
		pass.Reportf(d.Pos(), "exported method %s.%s lacks a doc comment", recv, d.Name.Name)
		return
	}
	pass.Reportf(d.Pos(), "exported function %s lacks a doc comment", d.Name.Name)
}

// lintGen checks type/const/var declarations: each exported name needs its
// own doc comment or a doc comment on the enclosing group.
func lintGen(pass *analysis.Pass, d *ast.GenDecl) {
	groupDoc := hasDoc(d.Doc)
	for _, spec := range d.Specs {
		switch sp := spec.(type) {
		case *ast.TypeSpec:
			if sp.Name.IsExported() && !hasDoc(sp.Doc) && !hasDoc(sp.Comment) && !groupDoc {
				pass.Reportf(sp.Pos(), "exported type %s lacks a doc comment", sp.Name.Name)
			}
		case *ast.ValueSpec:
			if hasDoc(sp.Doc) || hasDoc(sp.Comment) || groupDoc {
				continue
			}
			for _, name := range sp.Names {
				if name.IsExported() {
					pass.Reportf(sp.Pos(), "exported %s %s lacks a doc comment", d.Tok, name.Name)
					break
				}
			}
		}
	}
}

func hasDoc(g *ast.CommentGroup) bool {
	return g != nil && strings.TrimSpace(g.Text()) != ""
}
