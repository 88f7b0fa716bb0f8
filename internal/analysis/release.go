package analysis

// release: flow-sensitive leak detection for release obligations.
//
// Four obligations are tracked, each created locally and each cheap to leak
// on an early-return path:
//
//  1. Cancel funcs from context.WithCancel / WithTimeout / WithDeadline
//     (and their *Cause variants). Leaking one keeps the context's timer and
//     goroutine alive; the classic bug is `ctx, cancel := ...` followed by
//     `if err != nil { return err }` before the cancel() call.
//  2. I/O deadlines armed with SetDeadline / SetReadDeadline /
//     SetWriteDeadline on a connection this function OWNS (assigned from a
//     call like net.Dial, not received as a parameter or read from a
//     field). An armed deadline must be disarmed (Set*Deadline(time.Time{}))
//     or the conn closed before every exit, or the next reader inherits a
//     stale timeout — exactly the hazard around kvnet's ioDeadline.
//  3. Spans: a local *obs.Span, matched by the creating call's result type
//     so wrappers like the store's opSpan count at their call sites. End or
//     EndErr discharges it. A span never ended is worse than none: its event
//     is never emitted, so the trace silently loses the operation someone
//     thought worth timing. The obs package itself (the implementation) and
//     _test.go files are exempt.
//  4. Locks: sync.Mutex / RWMutex Lock and RLock, keyed by receiver text;
//     the matching Unlock / RUnlock discharges it.
//
// An obligation on a value is waived when the value escapes: a cancel func
// or span passed, stored, returned, or captured by a closure is someone
// else's to discharge, and a conn handed to another function is presumed
// managed there. A deferred discharge runs at every exit once registered, so
// it is credited function-wide wherever it sits relative to the creation
// (the cost is a known false negative: a defer registered only on some paths
// is credited to all of them). A deferred unlock runs only at exit, so its
// lock stays held for the rest of the body.
//
// The analysis is a forward may-analysis of the pending-obligation set over
// the CFG: a creation gens its obligation, a discharge kills it, and the nil
// branch of `if x != nil` (or `if x == nil`) kills x's obligations — a nil
// span has nothing to end. Anything still pending in the join at the exit
// block — pending on SOME path — is reported at its creation site. From the
// same fixpoint, every blocking operation reached while a lock is pending is
// reported: a channel send or receive (a select's cases included),
// time.Sleep, a sync Wait, a range over a channel. A cancel func or span
// discarded where it is created is reported outright.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Release reports release obligations that some path neither discharges nor
// hands off, and blocking operations performed while a mutex is held.
var Release = &Analyzer{
	Name: "release",
	Doc: "a cancel func, owned-conn I/O deadline, span or mutex is not released on some path " +
		"to return, or a mutex is held across a blocking operation",
	Run: runRelease,
}

// ctxWithFuncs are the context constructors returning (Context, CancelFunc).
var ctxWithFuncs = map[string]bool{
	"WithCancel": true, "WithTimeout": true, "WithDeadline": true,
	"WithCancelCause": true, "WithTimeoutCause": true, "WithDeadlineCause": true,
}

// deadlineMethods are the conn methods that arm (non-zero arg) or disarm
// (time.Time{} arg) an I/O deadline.
var deadlineMethods = map[string]bool{
	"SetDeadline": true, "SetReadDeadline": true, "SetWriteDeadline": true,
}

// lockPair maps each sync lock method to its release.
var lockPair = map[string]string{"Lock": "Unlock", "RLock": "RUnlock"}

// obsPkgPath is the import path whose *Span values are tracked.
const obsPkgPath = "smartflux/internal/obs"

func runRelease(pass *Pass) {
	inObs := pathInScope(pass.Path, []string{obsPkgPath})
	for _, f := range pass.Files {
		spans := !inObs && !strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go")
		funcBodies(f, func(body *ast.BlockStmt) {
			runReleaseBody(pass, body, spans)
		})
	}
}

// An obligation is one pending duty, keyed by the position of the call that
// created it.
type obligation struct {
	pos  token.Pos
	kind string       // "cancel func", "deadline", "span" or "lock"
	obj  types.Object // the cancel func, conn or span; nil for a lock
	what string       // the creating call; a lock's receiver text
	// release is a lock's discharging method, Unlock or RUnlock.
	release string
}

func runReleaseBody(pass *Pass, body *ast.BlockStmt, spans bool) {
	info := pass.Info

	// Phase 1: collect obligations syntactically, dropping those whose value
	// escapes — it is then someone else's to discharge.
	var obls []*obligation
	for _, o := range collectObligations(pass, body, spans) {
		if o.obj == nil || !obligationEscapes(info, body, o.obj) {
			obls = append(obls, o)
		}
	}
	if len(obls) == 0 {
		return
	}

	// Phase 2: deferred discharges, a deferred closure's included.
	deferred := map[*obligation]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			ast.Inspect(n.Call, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					for _, o := range obls {
						if discharges(info, call, o) {
							deferred[o] = true
						}
					}
				}
				return true
			})
			return false
		}
		return true
	})

	// Phase 3: may-analysis of pending obligations over the CFG.
	oblAt := map[token.Pos]*obligation{}
	for _, o := range obls {
		oblAt[o.pos] = o
	}
	ifConds := map[ast.Expr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if s, ok := n.(*ast.IfStmt); ok {
			ifConds[s.Cond] = true
		}
		return true
	})
	type pending = map[token.Pos]bool
	transfer := func(n ast.Node, st pending) {
		switch n.(type) {
		case *ast.DeferStmt, *ast.GoStmt:
			return // their calls do not run here
		}
		stmtScan(n, func(sub ast.Node) bool {
			call, ok := sub.(*ast.CallExpr)
			if !ok {
				return true
			}
			if o, created := oblAt[call.Pos()]; created {
				st[o.pos] = true
				return true
			}
			for _, o := range obls {
				if discharges(info, call, o) {
					delete(st, o.pos)
				}
			}
			return true
		})
	}
	spec := flowSpec[pending]{
		entry: func() pending { return pending{} },
		clone: func(s pending) pending {
			c := make(pending, len(s))
			for p := range s {
				c[p] = true
			}
			return c
		},
		join: func(dst, src pending) bool {
			changed := false
			for p := range src {
				if !dst[p] {
					dst[p] = true
					changed = true
				}
			}
			return changed
		},
		transfer: func(b *block, st pending) {
			for _, n := range b.nodes {
				transfer(n, st)
			}
		},
		refine: func(b *block, succ int, st pending) {
			if obj := nilBranch(info, b, succ, ifConds); obj != nil {
				for _, o := range obls {
					if o.obj == obj {
						delete(st, o.pos)
					}
				}
			}
		},
	}
	g := buildCFG(body)
	in := solveForward(g, spec)

	// Blocking operations under a pending lock: replay each block from its
	// fixpoint IN state, in block order.
	for _, b := range g.blocks {
		if in[b.index] == nil {
			continue
		}
		st := spec.clone(in[b.index])
		for _, n := range b.nodes {
			if held := heldLock(obls, st); held != nil {
				blockingOps(info, n, func(pos token.Pos, op string) {
					pass.Reportf(pos, "%s while %s is held (locked at %s); a blocked holder stalls every other waiter on the mutex",
						op, held.what, pass.Fset.Position(held.pos))
				})
			}
			transfer(n, st)
		}
	}

	// Leaks: pending at exit on some path, in creation order. An exit state
	// of nil means no path returns (a server loop): nothing leaks past it.
	exitIn := in[g.exit.index]
	for _, o := range obls {
		if !exitIn[o.pos] || deferred[o] {
			continue
		}
		switch o.kind {
		case "cancel func":
			pass.Reportf(o.pos,
				"%s: cancel func %q is not called on every path to return (add defer %s())",
				o.what, o.obj.Name(), o.obj.Name())
		case "deadline":
			pass.Reportf(o.pos,
				"%s arms an I/O deadline that is neither disarmed (zero time.Time) nor closed on every path to return",
				o.what)
		case "span":
			pass.Reportf(o.pos,
				"span %s is started but never ended on some path to return; its event is never emitted (End/EndErr it, or defer %s.End())",
				o.obj.Name(), o.obj.Name())
		case "lock":
			pass.Reportf(o.pos,
				"%s is locked but not released by %s.%s() on every path to return (use defer %s.%s())",
				o.what, o.what, o.release, o.what, o.release)
		}
	}
}

// collectObligations finds every creation in body outside nested literals
// (they get their own pass), reporting a cancel func or span discarded at
// its creation.
func collectObligations(pass *Pass, body *ast.BlockStmt, spans bool) []*obligation {
	info := pass.Info
	owned := ownedLocals(info, body)
	// local reports whether body declares obj: a value assigned into an
	// outer or captured variable belongs to the enclosing function.
	local := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= body.Pos() && obj.Pos() < body.End()
	}
	var obls []*obligation
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && spans && isSpanCall(info, call) {
				pass.Reportf(call.Pos(), "span is started and immediately discarded; "+
					"it can never be ended and its event is never emitted")
			}
		case *ast.AssignStmt:
			// A field, index or outer-variable target is not local: the
			// value escapes.
			if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok && len(n.Rhs) == 1 && len(n.Lhs) == 2 && isCtxWithCall(info, call) {
				if isBlank(n.Lhs[1]) {
					pass.Reportf(call.Pos(),
						"%s discards its cancel func; the context can never be released early (assign and defer cancel())",
						exprString(call.Fun))
				} else if obj := identObject(info, n.Lhs[1]); local(obj) {
					obls = append(obls, &obligation{pos: call.Pos(), kind: "cancel func", obj: obj, what: exprString(call.Fun)})
				}
				return true
			}
			if !spans || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isSpanCall(info, call) {
					continue
				}
				if isBlank(n.Lhs[i]) {
					pass.Reportf(call.Pos(), "span is started and assigned to _; "+
						"it can never be ended and its event is never emitted")
				} else if obj := identObject(info, n.Lhs[i]); local(obj) {
					obls = append(obls, &obligation{pos: call.Pos(), kind: "span", obj: obj, what: exprString(call.Fun)})
				}
			}
		case *ast.CallExpr:
			if name, recv, ok := syncLockMethod(info, n); ok {
				if unlock, isLock := lockPair[name]; isLock {
					obls = append(obls, &obligation{pos: n.Pos(), kind: "lock", what: recv, release: unlock})
				}
				return true
			}
			// Deadline arming on an owned conn.
			callee := staticCallee(info, n)
			if callee == nil || !deadlineMethods[callee.Name()] || len(n.Args) != 1 || isZeroTime(n.Args[0]) {
				return true
			}
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := ast.Unparen(sel.X).(*ast.Ident)
			if !ok {
				return true
			}
			if obj := identObject(info, id); owned[obj] && local(obj) {
				obls = append(obls, &obligation{pos: n.Pos(), kind: "deadline", obj: obj, what: id.Name + "." + callee.Name()})
			}
		}
		return true
	})
	return obls
}

// ownedLocals returns the set of local variables assigned from a call
// expression somewhere in the body — the "this function produced it"
// heuristic for conns. Parameters, fields and values copied from elsewhere
// are excluded, so arming a deadline on a conn someone handed in never
// creates an obligation here.
func ownedLocals(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	owned := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		if _, isCall := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); !isCall {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
				if obj := identObject(info, id); obj != nil {
					owned[obj] = true
				}
			}
		}
		return true
	})
	return owned
}

// isCtxWithCall reports whether call is context.With{Cancel,Timeout,Deadline}[Cause].
func isCtxWithCall(info *types.Info, call *ast.CallExpr) bool {
	callee := staticCallee(info, call)
	return callee != nil && callee.Pkg() != nil &&
		callee.Pkg().Path() == "context" && ctxWithFuncs[callee.Name()]
}

// isSpanCall reports whether call's static callee returns exactly one value
// of type *obs.Span.
func isSpanCall(info *types.Info, call *ast.CallExpr) bool {
	fn := staticCallee(info, call)
	if fn == nil {
		return false
	}
	res := fn.Type().(*types.Signature).Results()
	if res.Len() != 1 {
		return false
	}
	ptr, ok := res.At(0).Type().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Span" && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == obsPkgPath
}

// syncLockMethod returns the method name (Lock, RLock, Unlock, RUnlock) and
// the receiver text when call is a sync lock-family method call.
func syncLockMethod(info *types.Info, call *ast.CallExpr) (name, recv string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	fn := staticCallee(info, call)
	if !isSel || fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return fn.Name(), exprString(sel.X), true
	}
	return "", "", false
}

// isZeroTime reports whether e is literally time.Time{} — the disarm value.
func isZeroTime(e ast.Expr) bool {
	cl, ok := ast.Unparen(e).(*ast.CompositeLit)
	if !ok || len(cl.Elts) != 0 {
		return false
	}
	sel, ok := cl.Type.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Time" {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "time"
}

// discharges reports whether call fulfils obligation o: calling the cancel
// func, disarming with a zero deadline or closing the conn, ending the span,
// or unlocking the same receiver.
func discharges(info *types.Info, call *ast.CallExpr, o *obligation) bool {
	if o.kind == "lock" {
		name, recv, ok := syncLockMethod(info, call)
		return ok && name == o.release && recv == o.what
	}
	if o.kind == "cancel func" {
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && identObject(info, id) == o.obj
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok || identObject(info, id) != o.obj {
		return false
	}
	switch name := sel.Sel.Name; o.kind {
	case "span":
		return name == "End" || name == "EndErr"
	case "deadline":
		return name == "Close" || deadlineMethods[name] && len(call.Args) == 1 && isZeroTime(call.Args[0])
	}
	return false
}

// nilBranch returns x when the edge from b to its succ-th successor is the
// nil branch of an `if x != nil` or `if x == nil` head (the CFG lists an if
// head's successors as [then, else]).
func nilBranch(info *types.Info, b *block, succ int, ifConds map[ast.Expr]bool) types.Object {
	if len(b.nodes) == 0 {
		return nil
	}
	cond, ok := b.nodes[len(b.nodes)-1].(*ast.BinaryExpr)
	if !ok || !ifConds[cond] {
		return nil
	}
	x := cond.X
	if isNilIdent(x) {
		x = cond.Y
	} else if !isNilIdent(cond.Y) {
		return nil
	}
	if (cond.Op == token.EQL && succ == 0) || (cond.Op == token.NEQ && succ == 1) {
		return identObject(info, x)
	}
	return nil
}

// isNilIdent reports whether e is the identifier nil.
func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// isBlank reports whether e is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// heldLock returns the first lock obligation pending in st, or nil.
func heldLock(obls []*obligation, st map[token.Pos]bool) *obligation {
	for _, o := range obls {
		if o.kind == "lock" && st[o.pos] {
			return o
		}
	}
	return nil
}

// blockingOps calls report for every operation node n evaluates that can
// block indefinitely. Deferred and go'd calls do not run here.
func blockingOps(info *types.Info, n ast.Node, report func(token.Pos, string)) {
	switch n := n.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		return
	case *ast.RangeStmt:
		if t := info.TypeOf(n.X); t != nil && isChan(t) {
			report(n.Pos(), "range over channel")
		}
	}
	stmtScan(n, func(sub ast.Node) bool {
		switch sub := sub.(type) {
		case *ast.SendStmt:
			report(sub.Pos(), "channel send")
		case *ast.UnaryExpr:
			if sub.Op == token.ARROW {
				report(sub.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			fn := staticCallee(info, sub)
			if fn == nil || fn.Pkg() == nil {
				break
			}
			// A Cond's Wait releases its Locker while it waits; every other
			// sync Wait (WaitGroup's) blocks with the lock still held.
			method := fn.Type().(*types.Signature).Recv() != nil
			if (fn.Pkg().Path() == "time" && !method && fn.Name() == "Sleep") ||
				(fn.Pkg().Path() == "sync" && method && fn.Name() == "Wait" && fn.FullName() != "(*sync.Cond).Wait") {
				report(sub.Pos(), exprString(sub.Fun))
			}
		}
		return true
	})
}

// obligationEscapes reports whether obj is used in a way that hands the
// obligation to someone else: passed as an argument, returned, stored into
// anything, sent on a channel, or captured by a function literal.
func obligationEscapes(info *types.Info, body *ast.BlockStmt, obj types.Object) bool {
	escaped := false
	ast.Inspect(body, func(n ast.Node) bool {
		if escaped {
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok {
			// A literal mentioning the object captures it.
			escaped = mentionsObject(info, lit, obj)
			return false
		}
		id, ok := n.(*ast.Ident)
		if ok && identObject(info, id) == obj && !useStaysLocal(body, id) {
			escaped = true
		}
		return true
	})
	return escaped
}

// useStaysLocal classifies one identifier occurrence of the obligated
// object: a direct call (cancel()), a method call or field read on it
// (conn.Close(), sp.End()), a (re)definition and a nil comparison stay
// local; every other use hands it off.
func useStaysLocal(body *ast.BlockStmt, id *ast.Ident) bool {
	path := enclosingPath(body, id)
	if len(path) < 2 {
		return true
	}
	switch p := path[len(path)-2].(type) {
	case *ast.CallExpr:
		return ast.Unparen(p.Fun) == ast.Expr(id)
	case *ast.SelectorExpr:
		return p.X == ast.Expr(id)
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if ast.Unparen(lhs) == ast.Expr(id) {
				return true // (re)definition, not a read
			}
		}
		return false // read on an RHS: copied somewhere
	case *ast.ValueSpec:
		for _, name := range p.Names {
			if name == id {
				return true
			}
		}
		return false
	case *ast.BinaryExpr:
		return isNilIdent(p.X) || isNilIdent(p.Y)
	}
	return false
}

// enclosingPath returns the node path from body down to target (inclusive),
// or nil if target is not under body.
func enclosingPath(body *ast.BlockStmt, target ast.Node) []ast.Node {
	var path []ast.Node
	var found []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if n == nil {
			path = path[:len(path)-1]
			return false
		}
		path = append(path, n)
		if n == target {
			found = append([]ast.Node(nil), path...)
			return false
		}
		return true
	})
	return found
}
