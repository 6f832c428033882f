package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseFunc parses src as a file and returns the CFG of the first
// function declaration's body.
func parseFunc(t *testing.T, body string) *Graph {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fn := file.Decls[0].(*ast.FuncDecl)
	return New(fn.Body)
}

// TestExitReachable pins the termination judgments goleak builds on.
func TestExitReachable(t *testing.T) {
	cases := []struct {
		name string
		body string
		want bool
	}{
		{"empty", ``, true},
		{"straight line", `x := 1; _ = x`, true},
		{"infinite for", `for { }`, false},
		{"infinite for with work", `for { work() }`, false},
		{"for with break", `for { break }`, true},
		{"for with return", `for { if done() { return } }`, true},
		{"conditional for", `for cond() { }`, true},
		{"range loop", `for range xs { }`, true},
		{"empty select", `select { }`, false},
		{"select with return case", `for { select { case <-ch: return } }`, true},
		{"select no escape", `for { select { case <-ch: work() } }`, false},
		{"panic only", `panic("boom")`, true},
		{"infinite for then dead code", `for { }; work()`, false},
		{"goto forward", `goto done; done: work()`, true},
		{"goto self loop", `again: goto again`, false},
		{"labeled break", `outer: for { for { break outer } }`, true},
		{"labeled continue only", `outer: for { for { continue outer } }`, false},
		{"switch all terminate", `switch x() { case 1: return; default: panic("no") }`, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := parseFunc(t, tc.body)
			if got := g.ExitReachable(); got != tc.want {
				t.Errorf("ExitReachable = %v, want %v\nbody:\n%s", got, tc.want, tc.body)
			}
		})
	}
}

// TestPanicTerminates pins that a panic call ends its block: the block
// holding it leads to Exit and nowhere else.
func TestPanicTerminates(t *testing.T) {
	g := parseFunc(t, `if bad() { panic("x") }; work()`)
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if es, ok := n.(*ast.ExprStmt); ok && isPanicCall(es.X) {
				if len(b.Succs) != 1 || b.Succs[0] != g.Exit {
					t.Fatalf("panic block has successors %v, want only Exit", b.Succs)
				}
				return
			}
		}
	}
	t.Fatal("no block holds the panic call")
}

// TestDefersRecorded pins that defer statements land on Graph.Defers.
func TestDefersRecorded(t *testing.T) {
	g := parseFunc(t, `defer cleanup(); if x() { defer other() }`)
	if len(g.Defers) != 2 {
		t.Fatalf("got %d defers, want 2", len(g.Defers))
	}
}
