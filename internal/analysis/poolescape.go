package analysis

// poolescape: flow-sensitive use-after-release for pooled memory.
//
// PR 7 made the hot paths run on recycled memory: wire.GetBuffer hands out
// sync.Pool'd frame buffers, ReadFrame and the Decode* helpers return slices
// that ALIAS those buffers, kvstore's streaming scans page cells through a
// shared pool, and producers build write batches in kvstore.GetBatch's pool.
// The bug class this invites is silent: release a buffer (or let ReadFrame
// reset it) while an alias is still held, and the bytes under the alias are
// rewritten by an unrelated frame — no panic, just wrong data, which in this
// codebase means a nondeterministic result.
//
// The analyzer runs the dataflow framework per function body. Every pool
// acquisition site (wire.GetBuffer, kvstore.GetBatch, any sync.Pool.Get)
// allocates an abstract CELL keyed by its position; variables map to the
// sets of cells they may
// alias. Calls that take a tracked value and return alias-carrying results
// (ReadFrame's payload, Reader.Bytes, DecodeRequest/DecodeResponse, slicing)
// create DERIVED cells recorded as children of their sources. Release and
// Pool.Put kill a cell and all its descendants; Reset and ReadFrame recycle
// the buffer in place, killing descendants only. Any later read of a
// variable that may alias a dead cell — including returning it, storing it
// into a struct/slice/map/channel, or passing it on — is reported. A second
// report form catches `defer buf.Release()` functions that return an alias
// of buf: the caller receives memory the defer is about to recycle.
//
// Intraprocedural limits: defers other than the return check are not part of
// the flow (a deferred Release never kills in-body uses); function literals
// are analyzed as their own bodies, so a closure capturing a buffer is not
// tracked across the boundary; fields are not tracked, so an alias parked in
// a struct and read back later escapes the analysis.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Poolescape reports uses of pooled values (wire buffers, sync.Pool objects,
// scan pages) after they were released back to their pool on some path.
var Poolescape = &Analyzer{
	Name: "poolescape",
	Doc: "use-after-release of pooled memory: a value from wire.GetBuffer / kvstore.GetBatch / sync.Pool.Get " +
		"(or a zero-copy alias derived from one) is read, stored, or returned after " +
		"Release/Put/Reset invalidated it on some path",
	Run: runPoolescape,
}

func runPoolescape(pass *Pass) {
	for _, f := range pass.Files {
		funcBodies(f, func(body *ast.BlockStmt) {
			pe := &peFunc{
				pass:     pass,
				parents:  map[token.Pos]map[token.Pos]bool{},
				reported: map[token.Pos]bool{},
				deferred: map[types.Object]string{},
			}
			pe.collectDeferredReleases(body)
			g := buildCFG(body)
			spec := flowSpec[*peState]{
				entry: func() *peState { return newPEState() },
				clone: func(s *peState) *peState { return s.clone() },
				join:  func(dst, src *peState) bool { return dst.join(src) },
				transfer: func(b *block, st *peState) {
					for _, n := range b.nodes {
						pe.applyNode(n, st, false)
					}
				},
			}
			in := solveForward(g, spec)
			// Report pass: replay each block from its fixpoint IN state, in
			// block order, with reporting enabled. Dedup by use position.
			for _, b := range g.blocks {
				st := in[b.index]
				if st == nil {
					continue // unreachable block
				}
				st = st.clone()
				for _, n := range b.nodes {
					pe.applyNode(n, st, true)
				}
			}
		})
	}
}

// A cell is identified by the position of the call that acquired or derived
// it. cellSet is the may-alias set a variable maps to.
type cellSet map[token.Pos]bool

// peState is the per-point abstract state: which cells each local may alias,
// and which cells are dead (released/recycled), with the operation that
// killed them.
type peState struct {
	env  map[types.Object]cellSet
	dead map[token.Pos]string
}

func newPEState() *peState {
	return &peState{env: map[types.Object]cellSet{}, dead: map[token.Pos]string{}}
}

func (s *peState) clone() *peState {
	c := newPEState()
	for obj, cs := range s.env {
		n := make(cellSet, len(cs))
		for p := range cs {
			n[p] = true
		}
		c.env[obj] = n
	}
	for p, why := range s.dead {
		c.dead[p] = why
	}
	return c
}

// join unions src into s (may semantics) and reports change.
func (s *peState) join(src *peState) bool {
	changed := false
	for obj, cs := range src.env {
		dst := s.env[obj]
		if dst == nil {
			dst = cellSet{}
			s.env[obj] = dst
		}
		for p := range cs {
			if !dst[p] {
				dst[p] = true
				changed = true
			}
		}
	}
	for p, why := range src.dead {
		if _, ok := s.dead[p]; !ok {
			s.dead[p] = why
			changed = true
		}
	}
	return changed
}

// peFunc is the per-function-body analysis context shared across the
// fixpoint and report passes.
type peFunc struct {
	pass *Pass
	// parents records derivation edges child-cell -> source-cells, grown
	// monotonically as transfer discovers them.
	parents map[token.Pos]map[token.Pos]bool
	// reported dedups diagnostics by use position across report replays.
	reported map[token.Pos]bool
	// deferred maps objects with a pending `defer x.Release()` (or
	// `defer pool.Put(x)`) to the releasing call's rendering.
	deferred map[types.Object]string
}

// collectDeferredReleases scans the body (not nested literals) for deferred
// Release/Put calls so returns of their aliases can be flagged.
func (pe *peFunc) collectDeferredReleases(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		callee := staticCallee(pe.pass.Info, ds.Call)
		if callee == nil {
			return true
		}
		switch callee.Name() {
		case "Release":
			if sel, ok := ast.Unparen(ds.Call.Fun).(*ast.SelectorExpr); ok {
				if obj := identObject(pe.pass.Info, sel.X); obj != nil {
					pe.deferred[obj] = "defer " + exprString(sel.X) + ".Release()"
				}
			}
		case "Put":
			if isSyncPoolMethod(callee) && len(ds.Call.Args) == 1 {
				if obj := identObject(pe.pass.Info, ds.Call.Args[0]); obj != nil {
					pe.deferred[obj] = "defer " + exprString(ds.Call.Fun) + "(...)"
				}
			}
		}
		return true
	})
}

// applyNode is both the transfer function (report=false) and the diagnostic
// replay (report=true) for one flat CFG node.
func (pe *peFunc) applyNode(n ast.Node, st *peState, report bool) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		// Evaluate RHS first (uses checked, kills/derivations applied), then
		// bind LHS with a strong update.
		results := pe.evalRHS(n.Lhs, n.Rhs, st, report)
		assignOp := n.Tok != token.ASSIGN && n.Tok != token.DEFINE
		for i, lhs := range n.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				// Write through a selector/index: the RHS use check above is
				// the whole story (storing a dead alias is a use).
				pe.checkUses(lhs, st, report)
				continue
			}
			if id.Name == "_" {
				continue
			}
			obj := identObject(pe.pass.Info, id)
			if obj == nil {
				continue
			}
			var cs cellSet
			if i < len(results) {
				cs = results[i]
			}
			if assignOp {
				continue // x += ... never rebinds an alias
			}
			if len(cs) == 0 {
				delete(st.env, obj)
			} else {
				st.env[obj] = cs
			}
		}

	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) == 0 {
					continue
				}
				lhs := make([]ast.Expr, len(vs.Names))
				for i, name := range vs.Names {
					lhs[i] = name
				}
				results := pe.evalRHS(lhs, vs.Values, st, report)
				for i, name := range vs.Names {
					if name.Name == "_" {
						continue
					}
					obj := identObject(pe.pass.Info, name)
					if obj == nil || i >= len(results) || len(results[i]) == 0 {
						continue
					}
					st.env[obj] = results[i]
				}
			}
		}

	case *ast.ReturnStmt:
		for _, res := range n.Results {
			pe.checkUses(res, st, report)
			cs := pe.evalCells(res, st, report)
			if report {
				pe.checkDeferredEscape(res, cs, st)
			}
		}

	case *ast.DeferStmt:
		// Deferred calls run at exit; their release semantics must NOT kill
		// cells in the body flow. Argument evaluation happens now, though,
		// so dead-alias arguments are still uses.
		for _, arg := range n.Call.Args {
			pe.checkUses(arg, st, report)
		}

	case *ast.GoStmt:
		for _, arg := range n.Call.Args {
			pe.checkUses(arg, st, report)
		}

	case *ast.RangeStmt:
		pe.checkUses(n.X, st, report)

	case *ast.ExprStmt:
		pe.checkUses(n.X, st, report)
		pe.evalCells(n.X, st, report)

	case *ast.SendStmt:
		pe.checkUses(n.Chan, st, report)
		pe.checkUses(n.Value, st, report)
		pe.evalCells(n.Value, st, report)

	case ast.Expr:
		// Bare condition / switch tag from the CFG lowering.
		pe.checkUses(n, st, report)
		pe.evalCells(n, st, report)

	default:
		stmtScan(n, func(sub ast.Node) bool {
			if e, ok := sub.(ast.Expr); ok {
				pe.checkUses(e, st, report)
				return false
			}
			return true
		})
	}
}

// evalRHS evaluates assignment right-hand sides, returning one cellSet per
// LHS slot. A single multi-value call fans its per-result cells out.
func (pe *peFunc) evalRHS(lhs, rhs []ast.Expr, st *peState, report bool) []cellSet {
	for _, r := range rhs {
		pe.checkUses(r, st, report)
	}
	if len(rhs) == 1 && len(lhs) > 1 {
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
			return pe.evalCallMulti(call, len(lhs), st, report)
		}
		// `v, ok := m[k]` / `v, ok := x.(T)`: first slot aliases, second is bool.
		out := make([]cellSet, len(lhs))
		out[0] = pe.evalCells(rhs[0], st, report)
		return out
	}
	out := make([]cellSet, len(rhs))
	for i, r := range rhs {
		out[i] = pe.evalCells(r, st, report)
	}
	return out
}

// evalCells computes the may-alias cell set of an expression, applying any
// acquisition / derivation / kill semantics of calls inside it.
func (pe *peFunc) evalCells(e ast.Expr, st *peState, report bool) cellSet {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return st.env[identObject(pe.pass.Info, e)]
	case *ast.CallExpr:
		res := pe.evalCallMulti(e, 1, st, report)
		return res[0]
	case *ast.TypeAssertExpr:
		return pe.evalCells(e.X, st, report)
	case *ast.StarExpr:
		return pe.evalCells(e.X, st, report)
	case *ast.UnaryExpr:
		return pe.evalCells(e.X, st, report)
	case *ast.IndexExpr:
		return pe.evalCells(e.X, st, report)
	case *ast.SliceExpr:
		return pe.evalCells(e.X, st, report)
	case *ast.SelectorExpr:
		// Field read of a pooled struct aliases the struct's backing cell
		// only when the field itself can carry an alias.
		if t := pe.pass.Info.TypeOf(e); t != nil && aliasCarrying(t) {
			return pe.evalCells(e.X, st, report)
		}
		return nil
	}
	return nil
}

// evalCallMulti handles the call-centred semantics — pool acquisition,
// derived aliases, Release/Put/Reset kills — and returns per-result cells.
func (pe *peFunc) evalCallMulti(call *ast.CallExpr, nresults int, st *peState, report bool) []cellSet {
	out := make([]cellSet, nresults)
	// Nested calls in arguments evaluate first.
	for _, arg := range call.Args {
		pe.evalCells(arg, st, report)
	}
	callee := staticCallee(pe.pass.Info, call)
	if callee == nil {
		return out
	}

	recvCells := cellSet(nil)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		recvCells = pe.evalCells(sel.X, st, report)
	}

	switch {
	case callee.Name() == "Release" && len(recvCells) > 0:
		pe.kill(st, recvCells, "Release", true)
		return out

	case callee.Name() == "Put" && isSyncPoolMethod(callee):
		if len(call.Args) == 1 {
			if cs := pe.evalCells(call.Args[0], st, report); len(cs) > 0 {
				pe.kill(st, cs, "Pool.Put", true)
			}
		}
		return out

	case callee.Name() == "Reset" && len(recvCells) > 0:
		// In-place recycle: descendants (zero-copy views) die, the buffer
		// itself stays valid.
		pe.kill(st, recvCells, "Reset", false)
		return out

	case isPoolAcquire(callee):
		pos := call.Pos()
		pe.revive(st, pos) // re-acquisition at the same site starts a new generation
		out[0] = cellSet{pos: true}
		return out
	}

	// Derivation: a call reading a tracked value whose results can carry an
	// alias (ReadFrame payload, Reader.Bytes, DecodeRequest, NewReader...).
	sources := cellSet{}
	for p := range recvCells {
		sources[p] = true
	}
	for _, arg := range call.Args {
		for p := range pe.evalCells(arg, st, report) {
			sources[p] = true
		}
	}
	if len(sources) == 0 {
		return out
	}
	if callee.Name() == "ReadFrame" {
		// The frame buffer is recycled in place before refilling: previous
		// zero-copy views over it are now stale.
		pe.kill(st, sources, "ReadFrame reuse", false)
	}
	sig, _ := callee.Type().(*types.Signature)
	if sig == nil {
		return out
	}
	pos := call.Pos()
	results := sig.Results()
	for i := 0; i < results.Len() && i < nresults; i++ {
		if !aliasCarrying(results.At(i).Type()) {
			continue
		}
		pe.revive(st, pos)
		pe.addParents(pos, sources)
		out[i] = cellSet{pos: true}
	}
	return out
}

// revive starts a new generation of the cell at pos: the site re-acquired
// or re-derived, so the fresh value is live. Variables still aliasing the
// old generation must stay flagged, so the dead old generation is renamed
// to a tombstone key (the negated position) and every alias set holding the
// site is remapped to it.
func (pe *peFunc) revive(st *peState, pos token.Pos) {
	why, wasDead := st.dead[pos]
	if !wasDead {
		return
	}
	tomb := -pos
	st.dead[tomb] = why
	delete(st.dead, pos)
	for _, cs := range st.env {
		if cs[pos] {
			delete(cs, pos)
			cs[tomb] = true
		}
	}
}

// cellPos maps a (possibly tombstoned) cell key back to its source position.
func cellPos(p token.Pos) token.Pos {
	if p < 0 {
		return -p
	}
	return p
}

// kill marks cells dead. withRoots=false recycles in place: only derived
// descendants die.
func (pe *peFunc) kill(st *peState, roots cellSet, why string, withRoots bool) {
	desc := pe.descendants(roots)
	for p := range desc {
		if !withRoots && roots[p] {
			continue
		}
		if _, ok := st.dead[p]; !ok {
			st.dead[p] = why
		}
	}
}

// addParents records derivation edges child -> sources.
func (pe *peFunc) addParents(child token.Pos, sources cellSet) {
	m := pe.parents[child]
	if m == nil {
		m = map[token.Pos]bool{}
		pe.parents[child] = m
	}
	for p := range sources {
		m[p] = true
	}
}

// descendants returns roots plus every cell derived (transitively) from one.
func (pe *peFunc) descendants(roots cellSet) cellSet {
	out := cellSet{}
	for p := range roots {
		out[p] = true
	}
	for changed := true; changed; {
		changed = false
		for child, ps := range pe.parents {
			if out[child] {
				continue
			}
			for p := range ps {
				if out[p] {
					out[child] = true
					changed = true
					break
				}
			}
		}
	}
	return out
}

// checkUses reports every identifier inside e that may alias a dead cell.
func (pe *peFunc) checkUses(e ast.Expr, st *peState, report bool) {
	if !report {
		return
	}
	stmtScan(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := identObject(pe.pass.Info, id)
		cs := st.env[obj]
		if len(cs) == 0 {
			return true
		}
		for p := range cs {
			why, dead := st.dead[p]
			if !dead {
				continue
			}
			if pe.reported[id.Pos()] {
				break
			}
			pe.reported[id.Pos()] = true
			pe.pass.Reportf(id.Pos(),
				"pooled value %q used after release: invalidated by %s at %s on some path",
				id.Name, why, pe.pass.Fset.Position(cellPos(p)))
			break
		}
		return true
	})
}

// checkDeferredEscape reports returns whose value aliases a pooled object
// that a deferred Release/Put in this function will recycle.
func (pe *peFunc) checkDeferredEscape(res ast.Expr, cs cellSet, st *peState) {
	if len(pe.deferred) == 0 {
		return
	}
	for obj, how := range pe.deferred {
		held := st.env[obj]
		if len(held) == 0 {
			continue
		}
		reach := pe.descendants(held)
		hit := false
		for p := range cs {
			if reach[p] {
				hit = true
				break
			}
		}
		// A bare `return buf` is also an escape even without derivation.
		if !hit {
			if id, ok := ast.Unparen(res).(*ast.Ident); ok && identObject(pe.pass.Info, id) == obj {
				hit = true
			}
		}
		if hit && !pe.reported[res.Pos()] {
			pe.reported[res.Pos()] = true
			pe.pass.Reportf(res.Pos(),
				"return aliases pooled value %q, but %s will recycle it before the caller can read it",
				obj.Name(), how)
		}
	}
}

// --- pool model predicates -------------------------------------------------

// isPoolAcquire reports whether callee hands out pooled memory: any
// sync.Pool.Get, the wire codec's GetBuffer, or the store's GetBatch.
func isPoolAcquire(callee *types.Func) bool {
	if callee.Name() == "Get" && isSyncPoolMethod(callee) {
		return true
	}
	if callee.Pkg() == nil {
		return false
	}
	switch p := callee.Pkg().Path(); callee.Name() {
	case "GetBuffer":
		return p == "wire" || strings.HasSuffix(p, "/wire")
	case "GetBatch":
		return p == "kvstore" || strings.HasSuffix(p, "/kvstore")
	}
	return false
}

// isSyncPoolMethod reports whether callee is a method on sync.Pool.
func isSyncPoolMethod(callee *types.Func) bool {
	sig, _ := callee.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Pool" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// aliasCarrying reports whether a value of type t can carry a reference to
// pooled backing memory. Scalars, strings (copied by convention in this
// codebase: Reader.String, Buffer.String write new memory) and error are
// excluded so `h, err := Decode...` does not track h or err.
func aliasCarrying(t types.Type) bool {
	return aliasCarryingDepth(t, 0)
}

func aliasCarryingDepth(t types.Type, depth int) bool {
	if depth > 4 {
		return true // give up conservatively on deep nesting
	}
	if isErrorType(t) {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return false
	case *types.Slice, *types.Map, *types.Chan, *types.Pointer, *types.Signature:
		_ = u
		return true
	case *types.Interface:
		return true
	case *types.Array:
		return aliasCarryingDepth(u.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if aliasCarryingDepth(u.Field(i).Type(), depth+1) {
				return true
			}
		}
		return false
	}
	return true
}

// isErrorType reports whether t is the predeclared error interface.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
