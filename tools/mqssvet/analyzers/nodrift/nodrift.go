// Package nodrift guards the stack's determinism contracts. Lowered
// payloads and template keys must be byte-identical across runs
// (PR 4/6): the lowering cache, the calibration-epoch staleness gate, and
// the remote template registry all key on exact bytes, so a stray
// time.Now, a global math/rand call, or an unsorted map iteration in the
// compiler tree silently breaks caching and staleness detection. The
// simulator has the complementary contract (PR 8): shot results are a
// pure function of (job, seed, shot), so simq must draw randomness only
// from per-shot RNG streams, never the process-global source.
//
// A package participates either by import path (the defaults below) or by
// carrying a file-level //mqss:deterministic or //mqss:rngstream marker.
package nodrift

import (
	"go/ast"
	"go/types"
	"strings"

	"mqsspulse/tools/mqssvet/analysis"
)

// DeterministicPaths lists package paths whose output bytes must be a pure
// function of their inputs: no wall clock, no global RNG, no map-order
// dependence.
var DeterministicPaths = []string{
	"mqsspulse/internal/compiler",
	"mqsspulse/internal/ptemplate",
	"mqsspulse/internal/qir",
}

// StreamRNGPaths lists package paths where randomness must flow through
// explicit *rand.Rand streams (per-shot reproducibility), banning the
// global math/rand functions only.
var StreamRNGPaths = []string{
	"mqsspulse/internal/simq",
}

// Analyzer is the nodrift check.
var Analyzer = &analysis.Analyzer{
	Name: "nodrift",
	Doc:  "forbid time.Now, global math/rand, and order-dependent map iteration in byte-deterministic packages; forbid global math/rand in RNG-stream packages",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	deterministic := matches(pass, DeterministicPaths, "mqss:deterministic")
	rngStream := matches(pass, StreamRNGPaths, "mqss:rngstream")
	if !deterministic && !rngStream {
		return nil, nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				// A math/rand constructor (New, NewSource, ...) builds an
				// explicit stream; every other function draws from the global one.
				path, name := analysis.Callee(pass.TypesInfo, n)
				if (path == "math/rand" || path == "math/rand/v2") && !strings.HasPrefix(name, "New") {
					pass.Reportf(n.Pos(),
						"global math/rand.%s draws from shared process state; use an explicit *rand.Rand stream", name)
				}
				if deterministic && path == "time" && name == "Now" {
					pass.Reportf(n.Pos(),
						"time.Now in a byte-deterministic package makes output depend on the wall clock")
				}
			case *ast.RangeStmt:
				if deterministic {
					checkMapRange(pass, file, n)
				}
			}
			return true
		})
	}
	return nil, nil
}

// matches reports whether the package participates via path or marker.
func matches(pass *analysis.Pass, paths []string, marker string) bool {
	p := pass.Pkg.Path()
	for _, want := range paths {
		if p == want || strings.HasPrefix(p, want+"/") {
			return true
		}
	}
	for _, file := range pass.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if strings.TrimPrefix(c.Text, "//") == marker {
					return true
				}
			}
		}
	}
	return false
}

// checkMapRange flags a range over a map whose body accumulates into
// order-sensitive state declared outside the loop — appending to a slice
// (unless that slice is sorted after the loop), writing into a hash or
// builder, or concatenating onto a string. Writing keyed structures
// (other maps) inside the loop is order-independent and allowed.
func checkMapRange(pass *analysis.Pass, file *ast.File, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// x = append(x, …) onto an outer slice, or s += v on an outer string.
			for i, lhs := range n.Lhs {
				ident, ok := lhs.(*ast.Ident)
				if !ok || !declaredBefore(pass, ident, rng) {
					continue
				}
				if i < len(n.Rhs) && isAppendCall(pass, n.Rhs[i]) && !sortedAfter(pass, file, ident, rng) {
					pass.Reportf(n.Pos(),
						"appending to %s while ranging over a map records map order; collect keys and sort first", ident.Name)
				}
				if n.Tok.String() == "+=" && isStringType(pass, lhs) {
					pass.Reportf(n.Pos(),
						"concatenating onto %s while ranging over a map records map order", ident.Name)
				}
			}
		case *ast.CallExpr:
			if recv, name, ok := orderSensitiveWrite(pass, n); ok && declaredBefore(pass, recv, rng) {
				pass.Reportf(n.Pos(),
					"%s.%s while ranging over a map feeds map order into an accumulator; sort the keys first", recv.Name, name)
			}
		}
		return true
	})
}

// declaredBefore reports whether ident's object was declared before the
// range statement (i.e. outside the loop body).
func declaredBefore(pass *analysis.Pass, ident *ast.Ident, rng *ast.RangeStmt) bool {
	obj := pass.TypesInfo.Uses[ident]
	if obj == nil {
		obj = pass.TypesInfo.Defs[ident]
	}
	return obj != nil && obj.Pos() < rng.Pos()
}

// isAppendCall matches append(…).
func isAppendCall(pass *analysis.Pass, expr ast.Expr) bool {
	call, ok := expr.(*ast.CallExpr)
	return ok && pass.TypesInfo.Types[call.Fun].IsBuiltin() && types.ExprString(call.Fun) == "append"
}

// isStringType reports whether the expression has underlying type string.
func isStringType(pass *analysis.Pass, expr ast.Expr) bool {
	basic, ok := pass.TypesInfo.TypeOf(expr).Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// orderSensitiveWrite matches recv.Write/WriteString/WriteByte/WriteRune —
// the hash.Hash and strings.Builder accumulation methods.
func orderSensitiveWrite(pass *analysis.Pass, call *ast.CallExpr) (*ast.Ident, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteByte", "WriteRune":
	default:
		return nil, "", false
	}
	recv, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil, "", false
	}
	if _, isPkg := pass.TypesInfo.Uses[recv].(*types.PkgName); isPkg {
		return nil, "", false
	}
	return recv, sel.Sel.Name, true
}

// sortedAfter reports whether ident is passed to a sorting call after the
// range statement in the same file — the standard "collect keys, then
// sort" idiom. Both the stdlib sort/slices packages and local helpers
// whose name mentions sorting (sortPortArgs and friends) qualify.
func sortedAfter(pass *analysis.Pass, file *ast.File, ident *ast.Ident, rng *ast.RangeStmt) bool {
	sorted := false
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || !isSortCall(pass, call) {
			return true
		}
		target := pass.TypesInfo.Uses[ident]
		for _, arg := range call.Args {
			if argIdent, ok := arg.(*ast.Ident); ok && pass.TypesInfo.Uses[argIdent] == target {
				sorted = true
			}
		}
		return true
	})
	return sorted
}

// isSortCall matches sort.*/slices.* calls and any function whose name
// contains "sort" (case-insensitive), covering local sort helpers.
func isSortCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	if path, _ := analysis.Callee(pass.TypesInfo, call); path != "" {
		return path == "sort" || path == "slices"
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return strings.Contains(strings.ToLower(fun.Name), "sort")
	case *ast.SelectorExpr:
		return strings.Contains(strings.ToLower(fun.Sel.Name), "sort")
	}
	return false
}
