package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

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
