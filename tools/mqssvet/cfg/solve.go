package cfg

// The dataflow solver: a forward worklist iteration over a join
// semilattice of facts. Facts are comparable values — analyzers use
// small enums or interned bit sets (lockorder's held-lock masks) so the
// fixpoint test is plain equality.

// A Result holds the solved facts of one forward dataflow problem.
type Result[F comparable] struct {
	// In maps each reached block to the fact holding at its entry (the
	// join over predecessors' Out). Unreachable blocks are absent.
	In map[*Block]F
	// Out maps each reached block to the fact holding at its exit.
	Out map[*Block]F
}

// Solve runs a forward worklist iteration: starting from entry at
// g.Entry, each block's output is transfer(block, input) and each
// successor's input is the join of its predecessors' outputs. Iteration
// continues to a fixpoint, which exists whenever join is monotone and
// the fact domain is finite (both true for every mqssvet lattice).
// Blocks unreachable from Entry are never visited.
func Solve[F comparable](g *Graph, entry F, join func(F, F) F, transfer func(*Block, F) F) Result[F] {
	res := Result[F]{In: map[*Block]F{}, Out: map[*Block]F{}}
	res.In[g.Entry] = entry
	work := []*Block{g.Entry}
	queued := map[*Block]bool{g.Entry: true}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false
		out := transfer(b, res.In[b])
		if prev, seen := res.Out[b]; seen && prev == out {
			continue
		}
		res.Out[b] = out
		for _, s := range b.Succs {
			next := out
			if cur, seen := res.In[s]; seen {
				next = join(cur, out)
				if next == cur {
					continue
				}
			}
			res.In[s] = next
			if !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}
	return res
}
