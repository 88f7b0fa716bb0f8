package analysis

// Intraprocedural control-flow graphs over go/ast function bodies: the
// substrate for the flow-sensitive analyzers (poolescape, release, detflow).
// A CFG decomposes one function body into basic blocks — maximal
// straight-line node sequences — connected by directed edges for every way
// control can move between them (branches, loops, switches, selects, gotos,
// panics, returns).
//
// Block contents are deliberately FLAT: a control statement never appears
// with its body attached. Conditions are placed in blocks as bare ast.Expr
// nodes, a range loop contributes its *ast.RangeStmt header (key/value
// binding and the ranged expression; the body lives in successor blocks),
// and if/for/switch bodies become separate blocks. Transfer functions can
// therefore fold over Block.Nodes in order without ever double-visiting a
// nested statement. Function literals are opaque: the builder never descends
// into a FuncLit body (each literal gets its own CFG via funcBodies), so a
// statement node may still syntactically contain one — use stmtScan to walk
// a node's expressions with literals (and elided range bodies) skipped.

import (
	"go/ast"
)

// A block is one basic block. Nodes holds plain statements plus the flat
// header parts of control statements (bare condition expressions, range
// headers, select comm statements), in execution order.
type block struct {
	index int
	nodes []ast.Node
	succs []*block

	// ranges is the stack of range statements enclosing this block at build
	// time, innermost last — how detflow knows an assignment executes inside
	// a `range` over a map without re-walking syntax.
	ranges []*ast.RangeStmt

	// terminated marks a block ended by return/branch/panic; no fallthrough
	// edge leaves it.
	terminated bool
}

// A funcCFG is the control-flow graph of one function body. entry holds the
// first executed nodes; exit is an always-empty sink every return, panic and
// fall-off-the-end path reaches.
type funcCFG struct {
	blocks []*block
	entry  *block
	exit   *block
}

// cfgBuilder carries the construction state for one body.
type cfgBuilder struct {
	g   *funcCFG
	cur *block

	// loops and switches stack their break/continue targets; label is ""
	// for unlabeled statements.
	breaks    []cfgTarget
	continues []cfgTarget

	// labels maps a label name to its (lazily created) first block, shared
	// by forward and backward gotos.
	labels map[string]*block

	// ranges mirrors block.ranges for blocks created mid-range.
	ranges []*ast.RangeStmt
}

// cfgTarget is one break/continue destination, with the label that selects
// it (empty = innermost).
type cfgTarget struct {
	label string
	b     *block
}

// buildCFG constructs the CFG of one function body. It never returns nil:
// an empty body yields entry → exit.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	b := &cfgBuilder{g: &funcCFG{}, labels: map[string]*block{}}
	b.g.exit = &block{index: -1} // renumbered last, below
	b.g.entry = b.newBlock()
	b.cur = b.g.entry
	b.stmtList(body.List)
	b.edge(b.cur, b.g.exit) // fall off the end
	b.g.exit.index = len(b.g.blocks)
	b.g.blocks = append(b.g.blocks, b.g.exit)
	return b.g
}

// newBlock appends a fresh block inheriting the current range stack.
func (b *cfgBuilder) newBlock() *block {
	nb := &block{index: len(b.g.blocks), ranges: append([]*ast.RangeStmt(nil), b.ranges...)}
	b.g.blocks = append(b.g.blocks, nb)
	return nb
}

// edge connects from → to unless from already ended in a jump.
func (b *cfgBuilder) edge(from, to *block) {
	if from == nil || from.terminated {
		return
	}
	from.succs = append(from.succs, to)
}

// terminate marks the current block jump-ended and opens an unreachable
// successor for any dead statements that follow in source order.
func (b *cfgBuilder) terminate() {
	b.cur.terminated = true
	b.cur = b.newBlock()
}

// add appends a node to the current block.
func (b *cfgBuilder) add(n ast.Node) {
	b.cur.nodes = append(b.cur.nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// stmt lowers one statement into blocks and edges.
func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		b.edge(b.cur, lb)
		b.cur.terminated = true // every path continues through the label block
		b.cur = lb
		// Loops and switches consult breaks/continues by label; push a
		// marker so their setup can adopt this name.
		b.labeledStmt(s.Label.Name, s.Stmt)

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.exit)
		b.terminate()

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.IfStmt:
		b.ifStmt(s)

	case *ast.ForStmt:
		b.forStmt("", s)

	case *ast.RangeStmt:
		b.rangeStmt("", s)

	case *ast.SwitchStmt:
		b.switchStmt("", s)

	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt("", s)

	case *ast.SelectStmt:
		b.selectStmt("", s)

	case *ast.ExprStmt:
		b.add(s)
		if isTerminalCall(s.X) {
			b.edge(b.cur, b.g.exit)
			b.terminate()
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// Assignments, declarations, sends, inc/dec, go, defer: plain nodes.
		b.add(s)
	}
}

// labeledStmt dispatches a labeled statement so loops and switches register
// their break/continue targets under the label.
func (b *cfgBuilder) labeledStmt(label string, s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ForStmt:
		b.forStmt(label, s)
	case *ast.RangeStmt:
		b.rangeStmt(label, s)
	case *ast.SwitchStmt:
		b.switchStmt(label, s)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(label, s)
	case *ast.SelectStmt:
		b.selectStmt(label, s)
	default:
		b.stmt(s)
	}
}

// labelBlock returns (creating on first use) the block a label names, so
// forward gotos resolve before their label is lowered.
func (b *cfgBuilder) labelBlock(name string) *block {
	if lb, ok := b.labels[name]; ok {
		return lb
	}
	lb := b.newBlock()
	b.labels[name] = lb
	return lb
}

// branch lowers break/continue/goto/fallthrough.
func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	find := func(stack []cfgTarget) *block {
		for i := len(stack) - 1; i >= 0; i-- {
			if label == "" || stack[i].label == label {
				return stack[i].b
			}
		}
		return nil
	}
	var target *block
	switch s.Tok.String() {
	case "break":
		target = find(b.breaks)
	case "continue":
		target = find(b.continues)
	case "goto":
		target = b.labelBlock(label)
	case "fallthrough":
		// Wired by switchStmt (edge to the next case body); the statement
		// itself is a no-op here beyond ending the block.
		b.terminate()
		return
	}
	if target != nil {
		b.edge(b.cur, target)
	}
	b.terminate()
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.add(s.Cond) // bare condition expression
	head := b.cur

	thenB := b.newBlock()
	b.edge(head, thenB)
	b.cur = thenB
	b.stmtList(s.Body.List)
	thenEnd := b.cur

	join := b.newBlock()
	if s.Else != nil {
		elseB := b.newBlock()
		b.edge(head, elseB)
		b.cur = elseB
		b.stmt(s.Else)
		b.edge(b.cur, join)
	} else {
		b.edge(head, join)
	}
	b.edge(thenEnd, join)
	b.cur = join
}

func (b *cfgBuilder) forStmt(label string, s *ast.ForStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock()
	b.edge(b.cur, head)
	b.cur = head
	if s.Cond != nil {
		b.add(s.Cond)
	}

	exit := b.newBlock()
	if s.Cond != nil {
		b.edge(head, exit)
	}

	post := b.newBlock()
	b.pushLoop(label, exit, post)
	body := b.newBlock()
	b.edge(head, body)
	b.cur = body
	b.stmtList(s.Body.List)
	b.edge(b.cur, post)
	b.popLoop()

	b.cur = post
	if s.Post != nil {
		b.stmt(s.Post)
	}
	b.edge(b.cur, head)
	b.cur.terminated = true
	b.cur = exit
}

func (b *cfgBuilder) rangeStmt(label string, s *ast.RangeStmt) {
	head := b.newBlock()
	b.edge(b.cur, head)
	b.cur = head
	b.add(s) // the range header: key/value binding + ranged expression

	exit := b.newBlock()
	b.edge(head, exit) // zero iterations

	b.pushLoop(label, exit, head)
	b.ranges = append(b.ranges, s)
	body := b.newBlock()
	b.edge(head, body)
	b.cur = body
	b.stmtList(s.Body.List)
	b.edge(b.cur, head)
	b.cur.terminated = true
	b.ranges = b.ranges[:len(b.ranges)-1]
	b.popLoop()
	b.cur = exit
}

func (b *cfgBuilder) switchStmt(label string, s *ast.SwitchStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	head := b.cur
	join := b.newBlock()
	b.breaks = append(b.breaks, cfgTarget{label: label, b: join}, cfgTarget{label: "", b: join})
	b.caseClauses(head, join, s.Body.List, func(cc *ast.CaseClause) ([]ast.Node, []ast.Stmt) {
		nodes := make([]ast.Node, 0, len(cc.List))
		for _, e := range cc.List {
			nodes = append(nodes, e)
		}
		return nodes, cc.Body
	}, hasDefaultCase(s.Body.List))
	b.breaks = b.breaks[:len(b.breaks)-2]
	b.cur = join
}

func (b *cfgBuilder) typeSwitchStmt(label string, s *ast.TypeSwitchStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.stmt(s.Assign) // `x := y.(type)` or bare `y.(type)` expression stmt
	head := b.cur
	join := b.newBlock()
	b.breaks = append(b.breaks, cfgTarget{label: label, b: join}, cfgTarget{label: "", b: join})
	b.caseClauses(head, join, s.Body.List, func(cc *ast.CaseClause) ([]ast.Node, []ast.Stmt) {
		return nil, cc.Body // type lists carry no runtime expressions
	}, hasDefaultCase(s.Body.List))
	b.breaks = b.breaks[:len(b.breaks)-2]
	b.cur = join
}

// caseClauses lowers a switch body: head fans out to every case block (and
// to join when no default exists); fallthrough chains to the next body.
func (b *cfgBuilder) caseClauses(head, join *block, list []ast.Stmt, split func(*ast.CaseClause) ([]ast.Node, []ast.Stmt), hasDefault bool) {
	// First pass: create every case's entry block so fallthrough can target
	// the next one.
	type lowered struct {
		entry *block
		body  []ast.Stmt
		exprs []ast.Node
	}
	var cases []lowered
	for _, cs := range list {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		exprs, body := split(cc)
		cases = append(cases, lowered{entry: b.newBlock(), body: body, exprs: exprs})
	}
	for i, c := range cases {
		b.edge(head, c.entry)
		b.cur = c.entry
		for _, e := range c.exprs {
			b.add(e)
		}
		fallsTo := (*block)(nil)
		if i+1 < len(cases) {
			fallsTo = cases[i+1].entry
		}
		b.lowerCaseBody(c.body, join, fallsTo)
	}
	if !hasDefault {
		b.edge(head, join)
	}
}

// lowerCaseBody lowers one case body, turning a trailing fallthrough into an
// edge to the next case.
func (b *cfgBuilder) lowerCaseBody(body []ast.Stmt, join, next *block) {
	for _, s := range body {
		if br, ok := s.(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" && next != nil {
			b.edge(b.cur, next)
			b.terminate()
			return
		}
		b.stmt(s)
	}
	b.edge(b.cur, join)
}

func (b *cfgBuilder) selectStmt(label string, s *ast.SelectStmt) {
	head := b.cur
	join := b.newBlock()
	b.breaks = append(b.breaks, cfgTarget{label: label, b: join}, cfgTarget{label: "", b: join})
	any := false
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		any = true
		cb := b.newBlock()
		b.edge(head, cb)
		b.cur = cb
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.edge(b.cur, join)
	}
	b.breaks = b.breaks[:len(b.breaks)-2]
	if !any {
		// `select {}` blocks forever; the only way out is the process dying.
		b.edge(head, b.g.exit)
	}
	head.terminated = head.terminated || !any
	b.cur = join
}

// pushLoop registers a loop's break and continue targets — under its label,
// and as the innermost unlabeled pair.
func (b *cfgBuilder) pushLoop(label string, brk, cont *block) {
	b.breaks = append(b.breaks, cfgTarget{label: label, b: brk}, cfgTarget{label: "", b: brk})
	b.continues = append(b.continues, cfgTarget{label: label, b: cont}, cfgTarget{label: "", b: cont})
}

func (b *cfgBuilder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-2]
	b.continues = b.continues[:len(b.continues)-2]
}

func hasDefaultCase(list []ast.Stmt) bool {
	for _, cs := range list {
		if cc, ok := cs.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// isTerminalCall reports whether an expression statement never returns:
// panic(...) or os.Exit(...). Matching is syntactic — a local shadowing of
// `panic` would fool it, which this tree does not do — and deliberately
// conservative: unknown calls are assumed to return.
func isTerminalCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if pkg, ok := fun.X.(*ast.Ident); ok {
			return pkg.Name == "os" && fun.Sel.Name == "Exit"
		}
	}
	return false
}

// stmtScan walks the expressions a CFG block node actually evaluates,
// calling f on each subnode (pre-order; return false to skip a subtree).
// Function literal bodies are skipped (they have their own CFGs), and a
// RangeStmt header contributes only its key, value and ranged expression —
// never its body, which lives in other blocks.
func stmtScan(n ast.Node, f func(ast.Node) bool) {
	if rs, ok := n.(*ast.RangeStmt); ok {
		for _, e := range []ast.Expr{rs.Key, rs.Value, rs.X} {
			if e != nil {
				stmtScan(e, f)
			}
		}
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		return f(n)
	})
}
