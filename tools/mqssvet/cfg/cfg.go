// Package cfg builds per-function control-flow graphs from go/ast syntax
// and a static call graph over them. It is the analysis core behind
// mqssvet's flow-sensitive analyzers (goleak, ctxcancel):
// where PR 9's checks reasoned lexically, these reason over actual paths —
// early returns, panic edges, select branches, goto.
//
// The graph is deliberately small: basic blocks hold the statements and
// branch-condition expressions executed straight-line, edges follow every
// construct that moves control (if/for/range/switch/type-switch/select/
// goto/labeled break+continue/fallthrough/return/panic). Function literals
// are opaque — a FuncLit appearing in a block is one node of that block;
// callers build a separate graph for its body when they care. Defer is
// recorded on the graph (Defers), not modeled as edges: deferred calls run
// on every exit, so analyzers treat them as facts holding at Exit.
package cfg

import (
	"go/ast"
	"go/token"
)

// A Graph is the control-flow graph of one function body.
type Graph struct {
	// Entry is the unique entry block.
	Entry *Block
	// Exit is the unique exit block: every return, panic, and
	// falling-off-the-end path leads here. Exit holds no nodes.
	Exit *Block
	// Blocks lists every block in creation order, Entry first.
	Blocks []*Block
	// Defers lists the DeferStmt nodes seen anywhere in the body, in
	// source order. Deferred calls run at every exit from the function.
	Defers []*ast.DeferStmt
}

// A Block is one basic block: nodes executed straight-line, then a
// transfer of control along one of Succs.
type Block struct {
	// Index is the block's position in Graph.Blocks.
	Index int
	// Nodes are the statements and condition expressions of the block in
	// execution order. Condition expressions (if/for/switch tags, select
	// comm statements) appear so dataflow sees their effects.
	Nodes []ast.Node
	// Succs are the possible successor blocks.
	Succs []*Block
	// Preds are the predecessor blocks (inverse of Succs).
	Preds []*Block
}

// addSucc links b → s exactly once.
func (b *Block) addSucc(s *Block) {
	for _, have := range b.Succs {
		if have == s {
			return
		}
	}
	b.Succs = append(b.Succs, s)
	s.Preds = append(s.Preds, b)
}

// builder carries the state of one graph construction.
type builder struct {
	g *Graph
	// cur is the block under construction; nil after a terminating
	// statement (return/panic/goto) until new reachable flow starts.
	cur *Block
	// breakTo / continueTo are the innermost targets; labels maps label
	// names to their targets for labeled break/continue/goto.
	breakTo    *Block
	continueTo *Block
	labels     map[string]*labelTarget
}

// labelTarget records the blocks a label can transfer to.
type labelTarget struct {
	// head is the block a goto or labeled continue jumps to.
	head *Block
	// after is the block a labeled break jumps to (filled when the
	// labeled statement is a loop/switch/select).
	after *Block
	// cont is the labeled loop's continue target.
	cont *Block
}

// New builds the control-flow graph of a function body. The body may be
// nil (declaration without body); the graph then has only Entry → Exit.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{}
	b := &builder{g: g, labels: map[string]*labelTarget{}}
	g.Entry = b.newBlock()
	g.Exit = &Block{Index: -1}
	b.cur = g.Entry
	if body != nil {
		b.preScanLabels(body)
		b.stmts(body.List)
	}
	// Falling off the closing brace is an implicit return.
	if b.cur != nil {
		b.cur.addSucc(g.Exit)
	}
	g.Exit.Index = len(g.Blocks)
	g.Blocks = append(g.Blocks, g.Exit)
	return g
}

// newBlock appends a fresh block to the graph.
func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// startBlock makes blk current, linking it from the previous current
// block when flow can fall through into it.
func (b *builder) startBlock(blk *Block) {
	if b.cur != nil {
		b.cur.addSucc(blk)
	}
	b.cur = blk
}

// add appends a node to the current block, creating an (unreachable)
// block if control already terminated — analyzers still want the nodes.
func (b *builder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// preScanLabels registers every labeled statement reachable in stmts so
// forward gotos resolve. Nested function literals are skipped — their
// labels belong to their own graphs.
func (b *builder) preScanLabels(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.LabeledStmt:
			if _, ok := b.labels[n.Label.Name]; !ok {
				b.labels[n.Label.Name] = &labelTarget{head: b.newBlock()}
			}
		}
		return true
	})
}

// stmts lowers a statement list.
func (b *builder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// stmt lowers one statement into blocks and edges.
func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmts(s.List)

	case *ast.ReturnStmt:
		b.add(s)
		b.terminate()

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.terminate()
		}

	case *ast.DeferStmt:
		b.add(s)
		b.g.Defers = append(b.g.Defers, s)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		condBlk := b.cur
		after := b.newBlock()
		then := b.newBlock()
		condBlk.addSucc(then)
		b.cur = then
		b.stmts(s.Body.List)
		if b.cur != nil {
			b.cur.addSucc(after)
		}
		if s.Else != nil {
			els := b.newBlock()
			condBlk.addSucc(els)
			b.cur = els
			b.stmt(s.Else)
			if b.cur != nil {
				b.cur.addSucc(after)
			}
		} else {
			condBlk.addSucc(after)
		}
		b.setCur(after)

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		b.startBlock(head)
		if s.Cond != nil {
			b.add(s.Cond)
		}
		after := b.newBlock()
		if s.Cond != nil {
			head.addSucc(after)
		}
		body := b.newBlock()
		head.addSucc(body)
		b.loopBody(s.Body, body, head, after, s, func() {
			if s.Post != nil {
				b.add(s.Post)
			}
		})
		b.setCur(after)

	case *ast.RangeStmt:
		head := b.newBlock()
		b.startBlock(head)
		b.add(s.X)
		after := b.newBlock()
		head.addSucc(after) // empty collection / closed channel
		body := b.newBlock()
		head.addSucc(body)
		b.loopBody(s.Body, body, head, after, s, nil)
		b.setCur(after)

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.cases(s.Body, switchHasDefault(s.Body))

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.cases(s.Body, switchHasDefault(s.Body))

	case *ast.SelectStmt:
		// A select with no default blocks until a case is ready; with no
		// cases at all it blocks forever — no successors, which is exactly
		// what goleak's reachability check wants to see.
		b.cases(s.Body, true)

	case *ast.LabeledStmt:
		lt := b.labels[s.Label.Name]
		b.startBlock(lt.head)
		switch inner := s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			lt.after = b.newBlock()
			_ = inner
			b.labeledInner(s.Stmt, lt)
			b.setCur(lt.after)
		default:
			b.stmt(s.Stmt)
		}

	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			if s.Label != nil {
				if lt := b.labels[s.Label.Name]; lt != nil && lt.after != nil {
					b.jump(lt.after)
				}
			} else if b.breakTo != nil {
				b.jump(b.breakTo)
			}
		case token.CONTINUE:
			if s.Label != nil {
				if lt := b.labels[s.Label.Name]; lt != nil {
					if lt.cont != nil {
						b.jump(lt.cont)
					} else {
						b.jump(lt.head)
					}
				}
			} else if b.continueTo != nil {
				b.jump(b.continueTo)
			}
		case token.GOTO:
			if lt := b.labels[s.Label.Name]; lt != nil {
				b.jump(lt.head)
			}
		case token.FALLTHROUGH:
			// Handled structurally in cases(): the clause body already has
			// an edge to the next clause; nothing to do here.
		}

	case *ast.GoStmt:
		// The spawned goroutine is concurrent, not a control transfer;
		// callers analyze its body with its own graph.
		b.add(s)

	default:
		// Assignments, declarations, sends, inc/dec, empty statements:
		// straight-line nodes.
		if s != nil {
			if _, ok := s.(*ast.EmptyStmt); !ok {
				b.add(s)
			}
		}
	}
}

// loopBody lowers a loop body with break/continue targets pushed, then
// wires the back edge (through post, for a 3-clause for).
func (b *builder) loopBody(body *ast.BlockStmt, entry, head, after *Block, loop ast.Stmt, post func()) {
	savedBreak, savedCont := b.breakTo, b.continueTo
	b.breakTo, b.continueTo = after, head
	b.cur = entry
	b.stmts(body.List)
	if b.cur != nil {
		if post != nil {
			post()
		}
		b.cur.addSucc(head) // back edge
	}
	b.breakTo, b.continueTo = savedBreak, savedCont
	b.cur = nil
}

// labeledInner lowers the statement under a label with the label's break
// and continue targets active.
func (b *builder) labeledInner(s ast.Stmt, lt *labelTarget) {
	switch s := s.(type) {
	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		b.startBlock(head)
		if s.Cond != nil {
			b.add(s.Cond)
			head.addSucc(lt.after)
		}
		lt.cont = head
		body := b.newBlock()
		head.addSucc(body)
		b.loopBody(s.Body, body, head, lt.after, s, func() {
			if s.Post != nil {
				b.add(s.Post)
			}
		})
	case *ast.RangeStmt:
		head := b.newBlock()
		b.startBlock(head)
		b.add(s.X)
		head.addSucc(lt.after)
		lt.cont = head
		body := b.newBlock()
		head.addSucc(body)
		b.loopBody(s.Body, body, head, lt.after, s, nil)
	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.casesInto(s.Body, lt.after, switchHasDefault(s.Body))
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.casesInto(s.Body, lt.after, switchHasDefault(s.Body))
	case *ast.SelectStmt:
		b.casesInto(s.Body, lt.after, true)
	}
}

// cases lowers a switch/type-switch/select body into per-clause blocks
// joining at a fresh after block.
func (b *builder) cases(body *ast.BlockStmt, exhaustive bool) {
	after := b.newBlock()
	b.casesInto(body, after, exhaustive)
	b.setCur(after)
}

// casesInto lowers clause bodies with edges head→clause and clause→after,
// handling fallthrough (switch) and per-clause comm statements (select).
// When the construct is not exhaustive (switch without default), the head
// also flows straight to after.
func (b *builder) casesInto(body *ast.BlockStmt, after *Block, exhaustive bool) {
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}
	savedBreak := b.breakTo
	b.breakTo = after
	clauseBlocks := make([]*Block, len(body.List))
	for i := range body.List {
		clauseBlocks[i] = b.newBlock()
	}
	for i, clause := range body.List {
		head.addSucc(clauseBlocks[i])
		b.cur = clauseBlocks[i]
		switch c := clause.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				b.add(e)
			}
			b.stmts(c.Body)
			if hasFallthrough(c.Body) && i+1 < len(clauseBlocks) {
				if b.cur != nil {
					b.cur.addSucc(clauseBlocks[i+1])
					b.cur = nil
				}
			}
		case *ast.CommClause:
			if c.Comm != nil {
				b.stmt(c.Comm)
			}
			b.stmts(c.Body)
		}
		if b.cur != nil {
			b.cur.addSucc(after)
		}
	}
	// A non-exhaustive switch (no default) may run no clause at all; an
	// exhaustive construct — switch with default, or any select — only
	// leaves through a clause (an empty select{} therefore never leaves).
	if !exhaustive {
		head.addSucc(after)
	}
	b.breakTo = savedBreak
	b.cur = nil
}

// jump terminates the current block with an edge to target.
func (b *builder) jump(target *Block) {
	if b.cur != nil {
		b.cur.addSucc(target)
	}
	b.cur = nil
}

// terminate routes the current block to Exit (a return or a panic).
func (b *builder) terminate() {
	if b.cur != nil {
		b.cur.addSucc(b.g.Exit)
	}
	b.cur = nil
}

// setCur resumes construction at blk; blk may be unreachable (no preds)
// when every path above terminated — dead code still gets blocks.
func (b *builder) setCur(blk *Block) {
	b.cur = blk
}

// switchHasDefault reports whether a switch body contains a default case.
func switchHasDefault(body *ast.BlockStmt) bool {
	for _, clause := range body.List {
		if cc, ok := clause.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// hasFallthrough reports whether a case body ends in fallthrough.
func hasFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

// isPanicCall matches a call to the predeclared panic.
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	ident, ok := call.Fun.(*ast.Ident)
	return ok && ident.Name == "panic"
}

// Reachable returns the set of blocks reachable from g.Entry.
func (g *Graph) Reachable() map[*Block]bool {
	seen := map[*Block]bool{}
	var walk func(*Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(g.Entry)
	return seen
}

// ExitReachable reports whether any path from Entry reaches Exit — i.e.
// whether the function can terminate at all. A body shaped `for { … }`
// with no return, break, or panic cannot.
func (g *Graph) ExitReachable() bool {
	return g.Reachable()[g.Exit]
}
