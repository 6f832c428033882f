// Package ctxflow enforces the repository's context-plumbing contract
// (PR 1): library code never manufactures its own root context, and when
// a function takes a context.Context it is the first parameter. A
// context.Background() (or TODO()) buried inside internal code detaches
// that call tree from caller cancellation and deadlines — exactly the
// silent contract drift the async API redesign removed.
package ctxflow

import (
	"go/ast"

	"mqsspulse/tools/mqssvet/analysis"
)

// Analyzer is the ctxflow check.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "context.Context must be the first parameter; context.Background()/TODO() are forbidden outside package main",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Name() == "main" {
		// Commands and examples own their lifecycle; a root context is
		// exactly what main is for.
		return nil, nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			checkParamOrder(pass, fn)
			if fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if path, name := analysis.Callee(pass.TypesInfo, call); path == "context" && (name == "Background" || name == "TODO") {
					pass.Reportf(call.Pos(),
						"context.%s() in library code detaches %s from caller cancellation; thread a ctx parameter instead",
						name, fn.Name.Name)
				}
				return true
			})
		}
	}
	return nil, nil
}

// checkParamOrder reports a context.Context parameter that is not first.
func checkParamOrder(pass *analysis.Pass, fn *ast.FuncDecl) {
	params := fn.Type.Params
	if params == nil || len(params.List) == 0 {
		return
	}
	for _, field := range params.List {
		if isContextType(pass, field.Type) {
			if !isContextType(pass, params.List[0].Type) {
				pass.Reportf(field.Pos(),
					"context.Context must be the first parameter of %s", fn.Name.Name)
			}
			return // one report per function is enough
		}
	}
}

// isContextType reports whether the expression denotes context.Context.
func isContextType(pass *analysis.Pass, expr ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(expr)
	return t != nil && analysis.Names{}.Type(t) == "context.Context"
}
