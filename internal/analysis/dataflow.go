package analysis

// Forward dataflow over funcCFGs: a small generic fixpoint solver plus a
// reaching-definitions instantiation that doubles as the reference client
// (and regression test) for the transfer-function API.
//
// The solver is a classic worklist iteration to fixpoint. An analysis
// supplies its lattice operationally — entry state, clone, join, equality —
// and a transfer function applied to each block's flat node list. States
// must treat transfer as destructive on its input (the solver always passes
// a clone), and join as destructive on its first argument. Determinism:
// blocks are processed in index order (the worklist is an ordered bitset),
// so two runs over the same CFG visit blocks identically and diagnostics
// come out in a stable order.

import (
	"go/ast"
	"go/token"
	"go/types"
)

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

// ---- Reaching definitions -------------------------------------------------

// reachingDefs computes, for each block, the set of definition sites
// (token.Pos of the assignment/declaration) that may reach its entry, per
// variable. It is the framework's reference analysis: simple enough to
// check by hand, exercising gen/kill, joins and loop back-edges.
type defsState map[types.Object]map[token.Pos]bool

// reachingDefs returns each block's IN defs map, indexed by block index.
func reachingDefs(g *funcCFG, info *types.Info) []defsState {
	return solveForward(g, flowSpec[defsState]{
		entry: func() defsState { return defsState{} },
		clone: func(s defsState) defsState {
			c := make(defsState, len(s))
			for obj, defs := range s {
				d := make(map[token.Pos]bool, len(defs))
				for p := range defs {
					d[p] = true
				}
				c[obj] = d
			}
			return c
		},
		join: func(dst, src defsState) bool {
			changed := false
			for obj, defs := range src {
				d := dst[obj]
				if d == nil {
					d = map[token.Pos]bool{}
					dst[obj] = d
				}
				for p := range defs {
					if !d[p] {
						d[p] = true
						changed = true
					}
				}
			}
			return changed
		},
		transfer: func(b *block, state defsState) {
			for _, n := range b.nodes {
				forEachDef(n, info, func(obj types.Object, pos token.Pos) {
					state[obj] = map[token.Pos]bool{pos: true} // strong update
				})
			}
		},
	})
}

// forEachDef calls f for every variable a node (re)defines: LHS idents of
// assignments, short var decls, var declarations, inc/dec, and range
// key/value bindings. Writes through pointers/selectors/indexes are not
// definitions of a tracked object.
func forEachDef(n ast.Node, info *types.Info, f func(types.Object, token.Pos)) {
	defIdent := func(e ast.Expr) {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		if obj := identObject(info, id); obj != nil {
			f(obj, id.Pos())
		}
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			defIdent(lhs)
		}
	case *ast.IncDecStmt:
		defIdent(n.X)
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				defIdent(name)
			}
		}
	case *ast.RangeStmt:
		if n.Key != nil {
			defIdent(n.Key)
		}
		if n.Value != nil {
			defIdent(n.Value)
		}
	}
}
