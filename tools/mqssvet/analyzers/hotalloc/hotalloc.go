// Package hotalloc guards the simulator's zero-allocation contract
// (PR 5/12): the pulse-integration and dissipator hot loops hold their
// throughput only because the steady state allocates nothing — the
// AllocsPerRun tests pin the end result, but they cannot point at the
// line that broke it. Functions marked //mqss:hotloop opt into a
// construct-level ban: no append/make/new, no composite or function
// literals, no fmt calls, no string concatenation or string(…)
// conversions from byte slices. Setup code belongs outside the marked
// functions; scratch buffers are preallocated and reused.
package hotalloc

import (
	"go/ast"
	"go/types"

	"mqsspulse/tools/mqssvet/analysis"
)

// Analyzer is the hotalloc check.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "functions marked //mqss:hotloop must not contain allocating constructs (append/make/new, literals, fmt, string building)",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !analysis.FuncMarked(fn, "mqss:hotloop") {
				continue
			}
			checkHotFunc(pass, fn)
		}
	}
	return nil, nil
}

func checkHotFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure literal in //mqss:hotloop function %s allocates; hoist it out of the hot path", fn.Name.Name)
			return false
		case *ast.CompositeLit:
			pass.Reportf(n.Pos(), "composite literal in //mqss:hotloop function %s allocates; preallocate outside the loop", fn.Name.Name)
			return false
		case *ast.CallExpr:
			if name, bad := allocatingCall(pass, n); bad {
				pass.Reportf(n.Pos(), "%s in //mqss:hotloop function %s allocates on every call", name, fn.Name.Name)
			}
		case *ast.BinaryExpr:
			if n.Op.String() == "+" && isString(pass, n.X) {
				pass.Reportf(n.Pos(), "string concatenation in //mqss:hotloop function %s allocates", fn.Name.Name)
			}
		}
		return true
	})
}

// allocatingCall matches the allocating builtins, fmt calls, and
// string([]byte) conversions.
func allocatingCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if _, isBuiltin := pass.TypesInfo.Uses[fun].(*types.Builtin); isBuiltin {
			switch fun.Name {
			case "append", "make", "new":
				return fun.Name, true
			}
		}
		// string(b) / []byte(s) conversions through a named or basic type.
		if tv, ok := pass.TypesInfo.Types[fun]; ok && tv.IsType() {
			return convAlloc(pass, tv.Type, call)
		}
	case *ast.SelectorExpr:
		if ident, ok := fun.X.(*ast.Ident); ok {
			if pkgName, ok := pass.TypesInfo.Uses[ident].(*types.PkgName); ok && pkgName.Imported().Path() == "fmt" {
				return "fmt." + fun.Sel.Name, true
			}
		}
	}
	return "", false
}

// convAlloc flags string↔[]byte/[]rune conversions, which copy.
func convAlloc(pass *analysis.Pass, to types.Type, call *ast.CallExpr) (string, bool) {
	if len(call.Args) != 1 {
		return "", false
	}
	fromTV, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok {
		return "", false
	}
	toStr := isStringType(to)
	fromStr := isStringType(fromTV.Type)
	toSlice := isByteish(to)
	fromSlice := isByteish(fromTV.Type)
	if (toStr && fromSlice) || (toSlice && fromStr) {
		return "string/byte-slice conversion", true
	}
	return "", false
}

func isString(pass *analysis.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	return ok && isStringType(tv.Type)
}

func isStringType(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

func isByteish(t types.Type) bool {
	slice, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	basic, ok := slice.Elem().Underlying().(*types.Basic)
	if !ok {
		return false
	}
	k := basic.Kind()
	return k == types.Byte || k == types.Uint8 || k == types.Rune || k == types.Int32
}
