package analysis

// detflow: taint tracking from nondeterminism sources to durable sinks.
//
// The contract is reported where it is broken: wall clocks may be read
// (metrics need them), randomness may exist (seeded RNGs are fine), and maps
// may be ranged, but a value DERIVED from a nondeterministic source must not
// reach state that has to be reproducible.
//
// Sources (each tagged with a kind and its position):
//   - wall-clock: time.Now / time.Since / time.Until
//   - global-rand: package-level math/rand and math/rand/v2 draws (seeded
//     constructor calls like rand.New(rand.NewSource(seed)) are exempt)
//   - a call to a same-package function whose return value carries one of
//     the two kinds above, per result slot (one level: the summaries are
//     computed without consulting each other), so a helper-wrapped clock is
//     visible where it lands
//   - map-order: order-sensitive accumulation inside a `range` over a map —
//     float/string op-assign or append into a variable declared outside the
//     loop. A sort.*/slices.Sort* call over the accumulator clears this
//     taint (sorting launders iteration order).
//
// Taint propagates through assignments, arithmetic, conversions, and call
// results when an argument or receiver is tainted (an intraprocedural
// approximation: unknown callees are assumed to propagate). Reassignment is
// a strong update.
//
// Sinks:
//   - kvstore mutation methods (Put, PutFloat, PutFloatRows, Delete, Apply,
//     ReplayPut, ReplayDelete, CreateTable, EnsureTable, SetClock) on types
//     from smartflux/internal/kvstore
//   - a store into the buffer of a PutFloatRows fill: an indexed assignment
//     to the first parameter of a func literal passed as fill, whose values
//     the call writes
//   - durable Manager.Begin / Manager.Commit payloads
//   - output writes (Print*, Fprint*, Write*, Encode)
//   - obs.DecisionEvent fields (assignment or composite literal), except
//     traceClockField
//   - non-error return values carrying map-order taint (the ScanFloats
//     shape)
//   - any call sink above executed lexically inside a map range: even
//     untainted per-item writes commit in iteration order
//
// Scope: map-order is tracked in every package. Wall-clock and global-rand
// sources count only in clockScope, minus the obs subtree. _test.go files
// are skipped.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Detflow reports nondeterministic values flowing into stored state.
var Detflow = &Analyzer{
	Name: "detflow",
	Doc: "taint from time.Now/global rand (engine, ml, core, metric, kvstore, durable) or " +
		"map-iteration order (everywhere) reaching store writes, WAL payloads, output, " +
		"decision-trace fields, or (map order) a return value",
	Run: runDetflow,
}

// clockScope lists the package subtrees whose non-test code must be a
// deterministic function of its inputs — the QoD engine, the learners, the
// session logic, the metric computations, whose numbers back the paper's
// >95%-confidence claim — plus the storage layer, where a tainted write is
// durable. The obs subtree is exempt: observability reads wall clocks by
// design and its output never feeds a result.
var clockScope = []string{
	"smartflux/internal/engine",
	"smartflux/internal/ml",
	"smartflux/internal/core",
	"smartflux/internal/metric",
	"smartflux/internal/kvstore",
	"smartflux/internal/durable",
}

// globalRandExempt names math/rand package functions that are fine: RNG
// construction takes an explicit seed, so determinism is the caller's
// choice and visible at the call site.
var globalRandExempt = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

// kvWriteMethods are the kvstore mutations whose arguments become stored
// state.
var kvWriteMethods = map[string]bool{
	"Put": true, "PutFloat": true, "PutFloatRows": true, "Delete": true, "Apply": true,
	"ReplayPut": true, "ReplayDelete": true, "CreateTable": true,
	"EnsureTable": true, "SetClock": true,
}

// durableSinkMethods take WAL payloads.
var durableSinkMethods = map[string]bool{"Begin": true, "Commit": true}

// outputWrites are the function and method names that emit output in call
// order.
var outputWrites = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true,
}

// traceClockField is the decision trace's one wall-clock field: the §5.3
// per-step decision latency engine.decide measures around the decider. It
// is carried by design and exempt from the trace-field sink by name; the
// determinism tests zero it before comparing traces.
const traceClockField = "DecisionNanos"

func pathInScope(path string, scope []string) bool {
	for _, root := range scope {
		if path == root || strings.HasPrefix(path, root+"/") {
			return true
		}
	}
	return false
}

func runDetflow(pass *Pass) {
	df := &dfPkg{
		pass:     pass,
		clock:    pathInScope(pass.Path, clockScope) && !pathInScope(pass.Path, []string{obsPkgPath}),
		reported: map[token.Pos]bool{},
	}
	var files []*ast.File
	for _, f := range pass.Files {
		if !strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			files = append(files, f)
		}
	}
	if df.clock {
		sums := map[*types.Func][]map[string]bool{}
		for _, f := range files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					df.summarize(fd, sums)
				}
			}
		}
		df.summaries = sums
	}
	df.fills = gridFills(pass.Info, files)
	for _, f := range files {
		funcBodies(f, func(body *ast.BlockStmt) {
			df.flow(body, true, nil)
		})
	}
}

// gridFills maps the buffer parameter of each func literal passed as a
// PutFloatRows fill to the call's sink label: a value stored into it is
// written to the store.
func gridFills(info *types.Info, files []*ast.File) map[types.Object]string {
	fills := map[types.Object]string{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 3 {
				return true
			}
			fn, sink := staticCallee(info, call), sinkName(info, call)
			lit, ok := ast.Unparen(call.Args[2]).(*ast.FuncLit)
			if !ok || sink == "" || fn.Name() != "PutFloatRows" || len(lit.Type.Params.List) == 0 || len(lit.Type.Params.List[0].Names) == 0 {
				return true
			}
			if obj := info.Defs[lit.Type.Params.List[0].Names[0]]; obj != nil {
				fills[obj] = sink
			}
			return true
		})
	}
	return fills
}

// dtState maps each tainted local to its taint kinds and the position of
// the first source that produced each kind.
type dtState map[types.Object]map[string]token.Pos

func cloneDT(s dtState) dtState {
	c := make(dtState, len(s))
	for obj, kinds := range s {
		k := make(map[string]token.Pos, len(kinds))
		for kind, pos := range kinds {
			k[kind] = pos
		}
		c[obj] = k
	}
	return c
}

func joinDT(dst, src dtState) bool {
	changed := false
	for obj, kinds := range src {
		d := dst[obj]
		if d == nil {
			d = map[string]token.Pos{}
			dst[obj] = d
		}
		for kind, pos := range kinds {
			if old, ok := d[kind]; !ok || pos < old {
				// Keep the earliest source position for deterministic
				// messages regardless of visit order.
				d[kind] = pos
				changed = true
			}
		}
	}
	return changed
}

// dfPkg carries one package's analysis state.
type dfPkg struct {
	pass *Pass
	// clock enables the wall-clock and global-rand sources.
	clock bool
	// summaries maps a same-package function to the source kinds each of
	// its result slots returns.
	summaries map[*types.Func][]map[string]bool
	// reported dedups diagnostics by sink position.
	reported map[token.Pos]bool
	// fills maps each PutFloatRows fill's buffer parameter to the call's
	// sink label (see gridFills).
	fills map[types.Object]string
}

// flow runs the taint fixpoint over body, then replays each block from its
// IN state with reporting as asked; ret, when set, sees every return
// statement with the state reaching it.
func (df *dfPkg) flow(body *ast.BlockStmt, report bool, ret func(*ast.ReturnStmt, dtState)) {
	g := buildCFG(body)
	in := solveForward(g, flowSpec[dtState]{
		entry: func() dtState { return dtState{} },
		clone: cloneDT,
		join:  joinDT,
		transfer: func(b *block, st dtState) {
			for _, n := range b.nodes {
				df.applyNode(b, n, st, false)
			}
		},
	})
	for _, b := range g.blocks {
		if in[b.index] == nil {
			continue
		}
		st := cloneDT(in[b.index])
		for _, n := range b.nodes {
			if r, ok := n.(*ast.ReturnStmt); ok && ret != nil {
				ret(r, st)
			}
			df.applyNode(b, n, st, report)
		}
	}
}

// summarize records which wall-clock / global-rand kinds each result slot
// of fd may return.
func (df *dfPkg) summarize(fd *ast.FuncDecl, sums map[*types.Func][]map[string]bool) {
	fn, _ := df.pass.Info.Defs[fd.Name].(*types.Func)
	if fn == nil || !df.callsSource(fd.Body) {
		return
	}
	results := fn.Type().(*types.Signature).Results()
	slots := make([]map[string]bool, results.Len())
	for i := range slots {
		slots[i] = map[string]bool{}
	}
	tainted := false
	df.flow(fd.Body, false, func(r *ast.ReturnStmt, st dtState) {
		for i := range slots {
			var t map[string]token.Pos
			switch {
			case len(r.Results) == 0: // bare return of named results
				t = st[results.At(i)]
			case len(r.Results) < len(slots): // return f() of a multi-value call
				t = df.exprTaint(r.Results[0], st)
			default:
				t = df.exprTaint(r.Results[i], st)
			}
			for k := range t {
				if k != "map-order" {
					slots[i][k] = true
					tainted = true
				}
			}
		}
	})
	if tainted {
		sums[fn] = slots
	}
}

// callsSource reports whether body (outside nested literals) calls a
// wall-clock or global-rand source: only such a body can return one.
func (df *dfPkg) callsSource(body *ast.BlockStmt) bool {
	found := false
	stmtScan(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && df.sourceKind(call) != "" {
			found = true
		}
		return !found
	})
	return found
}

// applyNode is the transfer function and (report=true) the diagnostic replay.
func (df *dfPkg) applyNode(b *block, n ast.Node, st dtState, report bool) {
	info := df.pass.Info
	switch n := n.(type) {
	case *ast.AssignStmt:
		df.checkSinksIn(b, n, st, report)
		// Map-order accumulation: op-assign or self-append inside a map
		// range into a variable from outside the loop.
		if mr := enclosingMapRange(info, b); mr != nil {
			df.taintAccumulation(n, mr, st)
		}
		df.bindAssign(n, st, report)

	case *ast.DeclStmt:
		df.checkSinksIn(b, n, st, report)
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var t map[string]token.Pos
					if len(vs.Values) == 1 && len(vs.Names) > 1 {
						t = df.exprTaint(vs.Values[0], st)
					} else if i < len(vs.Values) {
						t = df.exprTaint(vs.Values[i], st)
					}
					df.setTaint(st, name, t)
				}
			}
		}

	case *ast.RangeStmt:
		// Ranged expression may itself be tainted; key/value inherit it.
		t := df.exprTaint(n.X, st)
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if id, ok := e.(*ast.Ident); ok {
				df.setTaint(st, id, t)
			}
		}

	case *ast.ReturnStmt:
		df.checkSinksIn(b, n, st, report)
		for _, r := range n.Results {
			if !report || isErrorType(info.TypeOf(r)) {
				continue
			}
			if p, ok := df.exprTaint(r, st)["map-order"]; ok {
				df.reportSink(r.Pos(), map[string]token.Pos{"map-order": p}, "return value "+exprString(r))
			}
		}

	default:
		df.checkSinksIn(b, n, st, report)
		df.applyKills(n, st)
	}
}

// bindAssign applies an assignment's taint flow.
func (df *dfPkg) bindAssign(n *ast.AssignStmt, st dtState, report bool) {
	info := df.pass.Info
	perSlot := make([]map[string]token.Pos, len(n.Lhs))
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		// Single multi-value RHS: every slot gets the call's propagated
		// taint; a summarized callee adds its own per slot.
		t := df.exprTaint(n.Rhs[0], st)
		call, _ := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
		var slots []map[string]bool
		if call != nil {
			slots = df.summaries[staticCallee(info, call)]
		}
		for i := range perSlot {
			perSlot[i] = t
			if slots != nil {
				perSlot[i] = df.exprTaint(call.Fun, st, call.Args...)
				for k := range slots[i] {
					addTaint(perSlot[i], k, call.Pos())
				}
			}
		}
	} else {
		for i := range n.Rhs {
			if i < len(perSlot) {
				perSlot[i] = df.exprTaint(n.Rhs[i], st)
			}
		}
	}
	opAssign := n.Tok != token.ASSIGN && n.Tok != token.DEFINE
	for i, lhs := range n.Lhs {
		// DecisionEvent field sink: ev.Field = tainted.
		if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && report {
			if isDecisionEventType(info.TypeOf(sel.X)) && sel.Sel.Name != traceClockField && len(perSlot[i]) > 0 {
				df.reportSink(lhs.Pos(), perSlot[i], "decision-trace field "+exprString(lhs))
			}
		}
		// Grid fill sink: vals[k] = tainted, in a PutFloatRows fill.
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && report && len(perSlot[i]) > 0 {
			if sink := df.fills[identObject(info, ix.X)]; sink != "" {
				df.reportSink(lhs.Pos(), perSlot[i], sink)
			}
		}
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := identObject(info, id)
		if obj == nil {
			continue
		}
		if opAssign {
			if len(perSlot[i]) > 0 {
				mergeTaint(st, obj, perSlot[i])
			}
			continue
		}
		df.setTaint(st, id, perSlot[i])
	}
	df.applyKills(n, st)
}

// setTaint strong-updates an identifier's taint.
func (df *dfPkg) setTaint(st dtState, id *ast.Ident, t map[string]token.Pos) {
	if id.Name == "_" {
		return
	}
	obj := identObject(df.pass.Info, id)
	if obj == nil {
		return
	}
	if len(t) == 0 {
		delete(st, obj)
		return
	}
	fresh := make(map[string]token.Pos, len(t))
	for k, p := range t {
		fresh[k] = p
	}
	st[obj] = fresh
}

func mergeTaint(st dtState, obj types.Object, t map[string]token.Pos) {
	d := st[obj]
	if d == nil {
		d = map[string]token.Pos{}
		st[obj] = d
	}
	for k, p := range t {
		addTaint(d, k, p)
	}
}

// addTaint records kind at pos, keeping the earliest position per kind.
func addTaint(t map[string]token.Pos, kind string, pos token.Pos) {
	if old, ok := t[kind]; !ok || pos < old {
		t[kind] = pos
	}
}

// exprTaint computes the taint kinds the expressions' values carry: sources
// they invoke plus tainted locals they read, propagated through calls.
func (df *dfPkg) exprTaint(e ast.Expr, st dtState, more ...ast.Expr) map[string]token.Pos {
	info := df.pass.Info
	out := map[string]token.Pos{}
	for _, e := range append([]ast.Expr{e}, more...) {
		stmtScan(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				for k, p := range st[identObject(info, n)] {
					addTaint(out, k, p)
				}
			case *ast.CallExpr:
				if kind := df.sourceKind(n); kind != "" {
					addTaint(out, kind, n.Pos())
				}
				for _, slot := range df.summaries[staticCallee(info, n)] {
					for k := range slot {
						addTaint(out, k, n.Pos())
					}
				}
			}
			return true
		})
	}
	return out
}

// sourceKind classifies a call as a wall-clock or global-rand source; both
// count only in clockScope.
func (df *dfPkg) sourceKind(call *ast.CallExpr) string {
	fn := staticCallee(df.pass.Info, call)
	if !df.clock || fn == nil || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until" {
			return "wall-clock"
		}
	case "math/rand", "math/rand/v2":
		if !globalRandExempt[fn.Name()] {
			return "global-rand"
		}
	}
	return ""
}

// applyKills clears map-order taint from values laundered by sorting.
func (df *dfPkg) applyKills(n ast.Node, st dtState) {
	info := df.pass.Info
	stmtScan(n, func(sub ast.Node) bool {
		call, ok := sub.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := staticCallee(info, call)
		if fn == nil || fn.Pkg() == nil || len(call.Args) == 0 {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		if obj := identObject(info, call.Args[0]); obj != nil {
			if kinds := st[obj]; kinds != nil {
				delete(kinds, "map-order")
				if len(kinds) == 0 {
					delete(st, obj)
				}
			}
		}
		return true
	})
}

// taintAccumulation marks order-sensitive accumulation inside a map range:
// `acc += x`, `acc = acc + x` (float/string), or `acc = append(acc, x)`
// where acc was declared before the range statement.
func (df *dfPkg) taintAccumulation(n *ast.AssignStmt, mr *ast.RangeStmt, st dtState) {
	info := df.pass.Info
	if len(n.Lhs) != 1 {
		return
	}
	id, ok := ast.Unparen(n.Lhs[0]).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := identObject(info, id)
	if obj == nil || obj.Pos() >= mr.Pos() {
		return // loop-local accumulator: dies with the iteration order intact
	}
	t := info.TypeOf(id)
	orderSensitive := false
	switch {
	case n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN:
		orderSensitive = t != nil && (isFloat(t) || isString(t))
	case n.Tok == token.ASSIGN && len(n.Rhs) == 1:
		if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
			if fid, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && fid.Name == "append" &&
				len(call.Args) > 0 && mentionsObject(info, call.Args[0], obj) {
				orderSensitive = true
			}
		}
		if be, ok := ast.Unparen(n.Rhs[0]).(*ast.BinaryExpr); ok && mentionsObject(info, be, obj) {
			orderSensitive = t != nil && (isFloat(t) || isString(t))
		}
	}
	if orderSensitive {
		mergeTaint(st, obj, map[string]token.Pos{"map-order": mr.Pos()})
	}
}

// checkSinksIn reports sink calls under n whose arguments are tainted, and
// sink calls issued lexically inside a map range.
func (df *dfPkg) checkSinksIn(b *block, n ast.Node, st dtState, report bool) {
	if !report {
		return
	}
	info := df.pass.Info
	stmtScan(n, func(sub ast.Node) bool {
		switch sub := sub.(type) {
		case *ast.CallExpr:
			sink := sinkName(info, sub)
			if sink == "" {
				return true
			}
			for _, arg := range sub.Args {
				if t := df.exprTaint(arg, st); len(t) > 0 {
					df.reportSink(arg.Pos(), t, sink)
				}
			}
			if mr := enclosingMapRange(info, b); mr != nil && !df.reported[sub.Pos()] {
				df.reported[sub.Pos()] = true
				df.pass.Reportf(sub.Pos(),
					"%s executes inside a range over a map (at %s): writes commit in iteration order, which is not reproducible",
					sink, df.pass.Fset.Position(mr.Pos()))
			}
		case *ast.CompositeLit:
			if !isDecisionEventType(info.TypeOf(sub)) {
				return true
			}
			for _, elt := range sub.Elts {
				val := elt
				field := "decision-trace field"
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					val = kv.Value
					if kid, ok := kv.Key.(*ast.Ident); ok {
						if kid.Name == traceClockField {
							continue
						}
						field += " " + kid.Name
					}
				}
				if t := df.exprTaint(val, st); len(t) > 0 {
					df.reportSink(val.Pos(), t, field)
				}
			}
		}
		return true
	})
}

// reportSink emits one deduplicated diagnostic per sink position, naming
// the taint kinds in sorted order.
func (df *dfPkg) reportSink(pos token.Pos, t map[string]token.Pos, sink string) {
	if df.reported[pos] {
		return
	}
	df.reported[pos] = true
	kinds := make([]string, 0, len(t))
	for k := range t {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, k+" (from "+df.pass.Fset.Position(t[k]).String()+")")
	}
	df.pass.Reportf(pos, "nondeterministic value flows into %s: tainted by %s",
		sink, strings.Join(parts, ", "))
}

// sinkName classifies a call as a sink, returning a human label or "".
func sinkName(info *types.Info, call *ast.CallExpr) string {
	fn := staticCallee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	method := fn.Type().(*types.Signature).Recv() != nil
	path := fn.Pkg().Path()
	switch {
	case outputWrites[fn.Name()]:
		return "output write " + exprString(call.Fun)
	case method && kvWriteMethods[fn.Name()] && pkgPathHasSuffix(path, "internal/kvstore"):
		return "kvstore write " + exprString(call.Fun)
	case method && durableSinkMethods[fn.Name()] && pkgPathHasSuffix(path, "internal/durable"):
		return "WAL payload via " + exprString(call.Fun)
	}
	return ""
}

// enclosingMapRange returns the innermost range-over-a-map enclosing block
// b, or nil.
func enclosingMapRange(info *types.Info, b *block) *ast.RangeStmt {
	for i := len(b.ranges) - 1; i >= 0; i-- {
		t := info.TypeOf(b.ranges[i].X)
		if t == nil {
			continue
		}
		if _, ok := t.Underlying().(*types.Map); ok {
			return b.ranges[i]
		}
	}
	return nil
}

func isDecisionEventType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "DecisionEvent" && obj.Pkg() != nil &&
		pkgPathHasSuffix(obj.Pkg().Path(), "internal/obs")
}

// pkgPathHasSuffix matches a package path against a path suffix on path
// component boundaries.
func pkgPathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// isString reports whether t's underlying type is string.
func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
