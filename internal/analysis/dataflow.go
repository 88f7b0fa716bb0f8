package analysis

// Forward dataflow over funcCFGs: a small generic fixpoint solver. Its
// reference client, reaching definitions, lives in dataflow_test.go, where
// it regression-tests the transfer-function API.
//
// The solver is a classic worklist iteration to fixpoint. An analysis
// supplies its lattice operationally — entry state, clone, join, equality —
// and a transfer function applied to each block's flat node list. States
// must treat transfer as destructive on its input (the solver always passes
// a clone), and join as destructive on its first argument. Determinism:
// blocks are processed in index order (the worklist is an ordered bitset),
// so two runs over the same CFG visit blocks identically and diagnostics
// come out in a stable order.

// flowSpec defines one forward dataflow analysis over states of type S.
type flowSpec[S any] struct {
	// entry produces the state on entry to the function.
	entry func() S
	// clone deep-copies a state.
	clone func(S) S
	// join merges src into dst (may-/must- semantics live here) and
	// reports whether dst changed.
	join func(dst, src S) bool
	// transfer applies one block's nodes to state in place.
	transfer func(b *block, state S)
	// refine, when set, narrows the state flowing along the edge from b to
	// its succ-th successor (an if head lists [then, else]): how a branch
	// condition changes what holds on each side.
	refine func(b *block, succ int, state S)
}

// solveForward runs fn to fixpoint and returns each block's IN state,
// indexed by block.index. The iteration cap bounds pathological lattices
// (a correct monotone analysis converges far earlier); on overrun the
// current approximation is returned, which for may-analyses errs toward
// reporting.
func solveForward[S any](g *funcCFG, fn flowSpec[S]) []S {
	n := len(g.blocks)
	in := make([]S, n)
	seen := make([]bool, n)
	in[g.entry.index] = fn.entry()
	seen[g.entry.index] = true

	work := make([]bool, n)
	work[g.entry.index] = true
	pending := 1

	const maxRounds = 1 << 14
	for round := 0; pending > 0 && round < maxRounds; round++ {
		// Lowest-index pending block first: deterministic and, with the
		// builder's roughly topological numbering, near-optimal.
		bi := -1
		for i, w := range work {
			if w {
				bi = i
				break
			}
		}
		work[bi] = false
		pending--

		b := g.blocks[bi]
		out := fn.clone(in[bi])
		fn.transfer(b, out)
		for i, s := range b.succs {
			edge := out
			if fn.refine != nil {
				edge = fn.clone(out)
				fn.refine(b, i, edge)
			}
			changed := false
			if !seen[s.index] {
				in[s.index] = fn.clone(edge)
				seen[s.index] = true
				changed = true
			} else if fn.join(in[s.index], edge) {
				changed = true
			}
			if changed && !work[s.index] {
				work[s.index] = true
				pending++
			}
		}
	}
	return in
}
