package metric

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// This file implements the high-level metric DSL the paper leaves as future
// work (§4.2: "We plan in the future to provide a high-level DSL language
// for non-expert users"). A DSL metric is one arithmetic expression over
// per-element aggregates, evaluated at Compute time:
//
//	sum(absdelta) * m / (sum(prev) * n)     // Equation 3
//	sqrt(sum(sqdelta) / m)                  // Equation 4 (RMSE)
//	max(absdelta)                           // worst single-element change
//	sum(absdelta) / (1 + sum(max))          // custom damped relative change
//
// Aggregates (accumulated over the Update calls for modified elements):
//
//	sum(delta)     Σ (cur - prev)
//	sum(absdelta)  Σ |cur - prev|
//	sum(sqdelta)   Σ (cur - prev)²
//	sum(cur)       Σ cur
//	sum(prev)      Σ prev
//	sum(max)       Σ max(cur, prev)
//	max(absdelta)  max |cur - prev|
//	max(cur)       max cur
//
// Scalars: m (modified elements), n (total elements), baselinesum
// (Σ prev over the whole container), plus numeric literals. Operators:
// + - * / with the usual precedence, parentheses, and sqrt(), abs(), min(),
// max() as functions of expressions. Division by zero yields 0.

// ParseDSL compiles an expression into a metric Factory. The returned
// factory is reusable and safe for concurrent use (each call builds an
// independent Metric).
func ParseDSL(expr string) (Factory, error) {
	p := &dslParser{input: expr}
	node, err := p.parseExpr()
	if err != nil {
		return nil, fmt.Errorf("metric dsl: %w", err)
	}
	p.skipSpace()
	if p.pos != len(p.input) {
		return nil, fmt.Errorf("metric dsl: trailing input at %d: %q", p.pos, p.input[p.pos:])
	}
	return func() Metric { return &dslMetric{root: node} }, nil
}

// dslAggregates is the per-element accumulator state.
type dslAggregates struct {
	sumDelta    float64
	sumAbsDelta float64
	sumSqDelta  float64
	sumCur      float64
	sumPrev     float64
	sumMax      float64
	maxAbsDelta float64
	maxCur      float64
	count       int
}

func (a *dslAggregates) update(cur, prev float64) {
	d := cur - prev
	a.sumDelta += d
	a.sumAbsDelta += math.Abs(d)
	a.sumSqDelta += d * d
	a.sumCur += cur
	a.sumPrev += prev
	a.sumMax += math.Max(cur, prev)
	if ad := math.Abs(d); ad > a.maxAbsDelta {
		a.maxAbsDelta = ad
	}
	if a.count == 0 || cur > a.maxCur {
		a.maxCur = cur
	}
	a.count++
}

// dslMetric implements Metric by evaluating the expression tree against the
// accumulated aggregates.
type dslMetric struct {
	root dslNode
	agg  dslAggregates
}

var _ Metric = (*dslMetric)(nil)

func (m *dslMetric) Update(cur, prev float64) { m.agg.update(cur, prev) }

func (m *dslMetric) Compute(ctx Context) float64 {
	v := m.root.eval(&m.agg, ctx)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func (m *dslMetric) Reset() { m.agg = dslAggregates{} }

// dslNode is one node of the compiled expression.
type dslNode interface {
	eval(agg *dslAggregates, ctx Context) float64
}

type dslLiteral float64

func (l dslLiteral) eval(*dslAggregates, Context) float64 { return float64(l) }

type dslVar int

// Variable codes.
const (
	varM dslVar = iota + 1
	varN
	varBaselineSum
	varSumDelta
	varSumAbsDelta
	varSumSqDelta
	varSumCur
	varSumPrev
	varSumMax
	varMaxAbsDelta
	varMaxCur
)

func (v dslVar) eval(agg *dslAggregates, ctx Context) float64 {
	switch v {
	case varM:
		return float64(ctx.Modified)
	case varN:
		return float64(ctx.Total)
	case varBaselineSum:
		return ctx.BaselineSum
	case varSumDelta:
		return agg.sumDelta
	case varSumAbsDelta:
		return agg.sumAbsDelta
	case varSumSqDelta:
		return agg.sumSqDelta
	case varSumCur:
		return agg.sumCur
	case varSumPrev:
		return agg.sumPrev
	case varSumMax:
		return agg.sumMax
	case varMaxAbsDelta:
		return agg.maxAbsDelta
	case varMaxCur:
		return agg.maxCur
	default:
		return 0
	}
}

type dslBinary struct {
	op          byte
	left, right dslNode
}

func (b dslBinary) eval(agg *dslAggregates, ctx Context) float64 {
	l := b.left.eval(agg, ctx)
	r := b.right.eval(agg, ctx)
	switch b.op {
	case '+':
		return l + r
	case '-':
		return l - r
	case '*':
		return l * r
	case '/':
		if r == 0 {
			return 0
		}
		return l / r
	default:
		return 0
	}
}

type dslCall struct {
	fn   string
	args []dslNode
}

func (c dslCall) eval(agg *dslAggregates, ctx Context) float64 {
	vals := make([]float64, len(c.args))
	for i, a := range c.args {
		vals[i] = a.eval(agg, ctx)
	}
	switch c.fn {
	case "sqrt":
		if vals[0] < 0 {
			return 0
		}
		return math.Sqrt(vals[0])
	case "abs":
		return math.Abs(vals[0])
	case "min":
		return math.Min(vals[0], vals[1])
	case "max":
		return math.Max(vals[0], vals[1])
	default:
		return 0
	}
}

// dslParser is a recursive-descent parser over the expression grammar.
type dslParser struct {
	input string
	pos   int
}

func (p *dslParser) skipSpace() {
	for p.pos < len(p.input) && (p.input[p.pos] == ' ' || p.input[p.pos] == '\t') {
		p.pos++
	}
}

func (p *dslParser) peek() byte {
	p.skipSpace()
	if p.pos >= len(p.input) {
		return 0
	}
	return p.input[p.pos]
}

// parseExpr handles + and -.
func (p *dslParser) parseExpr() (dslNode, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek() {
		case '+', '-':
			op := p.input[p.pos]
			p.pos++
			right, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			left = dslBinary{op: op, left: left, right: right}
		default:
			return left, nil
		}
	}
}

// parseTerm handles * and /.
func (p *dslParser) parseTerm() (dslNode, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek() {
		case '*', '/':
			op := p.input[p.pos]
			p.pos++
			right, err := p.parseFactor()
			if err != nil {
				return nil, err
			}
			left = dslBinary{op: op, left: left, right: right}
		default:
			return left, nil
		}
	}
}

// parseFactor handles literals, identifiers, calls and parentheses.
func (p *dslParser) parseFactor() (dslNode, error) {
	switch c := p.peek(); {
	case c == 0:
		return nil, fmt.Errorf("unexpected end of expression")
	case c == '(':
		p.pos++
		node, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.peek() != ')' {
			return nil, fmt.Errorf("missing ')' at %d", p.pos)
		}
		p.pos++
		return node, nil
	case c == '-':
		p.pos++
		node, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return dslBinary{op: '-', left: dslLiteral(0), right: node}, nil
	case c >= '0' && c <= '9' || c == '.':
		return p.parseNumber()
	case isIdentByte(c):
		return p.parseIdent()
	default:
		return nil, fmt.Errorf("unexpected character %q at %d", c, p.pos)
	}
}

func isIdentByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func (p *dslParser) parseNumber() (dslNode, error) {
	start := p.pos
	for p.pos < len(p.input) {
		c := p.input[p.pos]
		if c >= '0' && c <= '9' || c == '.' || c == 'e' || c == 'E' ||
			((c == '+' || c == '-') && p.pos > start && (p.input[p.pos-1] == 'e' || p.input[p.pos-1] == 'E')) {
			p.pos++
			continue
		}
		break
	}
	v, err := strconv.ParseFloat(p.input[start:p.pos], 64)
	if err != nil {
		return nil, fmt.Errorf("bad number %q", p.input[start:p.pos])
	}
	return dslLiteral(v), nil
}

// aggregate names accepted inside sum(...) and max(...).
var dslSumArgs = map[string]dslVar{
	"delta":    varSumDelta,
	"absdelta": varSumAbsDelta,
	"sqdelta":  varSumSqDelta,
	"cur":      varSumCur,
	"prev":     varSumPrev,
	"max":      varSumMax,
}

var dslMaxArgs = map[string]dslVar{
	"absdelta": varMaxAbsDelta,
	"cur":      varMaxCur,
}

func (p *dslParser) parseIdent() (dslNode, error) {
	start := p.pos
	for p.pos < len(p.input) && isIdentByte(p.input[p.pos]) {
		p.pos++
	}
	name := strings.ToLower(p.input[start:p.pos])

	// Scalar variables.
	switch name {
	case "m":
		return varM, nil
	case "n":
		return varN, nil
	case "baselinesum":
		return varBaselineSum, nil
	}

	if p.peek() != '(' {
		return nil, fmt.Errorf("unknown identifier %q", name)
	}
	p.pos++ // consume '('

	// Aggregate accessors: sum(name) / max(name).
	if name == "sum" || name == "max" {
		if node, ok, err := p.tryAggregate(name); err != nil {
			return nil, err
		} else if ok {
			return node, nil
		}
	}

	// Function calls over sub-expressions.
	argc := map[string]int{"sqrt": 1, "abs": 1, "min": 2, "max": 2}[name]
	if argc == 0 {
		return nil, fmt.Errorf("unknown function %q", name)
	}
	args := make([]dslNode, 0, argc)
	for i := 0; i < argc; i++ {
		if i > 0 {
			if p.peek() != ',' {
				return nil, fmt.Errorf("%s expects %d arguments", name, argc)
			}
			p.pos++
		}
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, arg)
	}
	if p.peek() != ')' {
		return nil, fmt.Errorf("missing ')' in %s()", name)
	}
	p.pos++
	return dslCall{fn: name, args: args}, nil
}

// tryAggregate attempts to read sum(NAME)/max(NAME) where NAME is a known
// aggregate; it rewinds and reports !ok when the argument is an expression
// instead (e.g. max(a, b)).
func (p *dslParser) tryAggregate(fn string) (dslNode, bool, error) {
	save := p.pos
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.input) && isIdentByte(p.input[p.pos]) {
		p.pos++
	}
	arg := strings.ToLower(p.input[start:p.pos])
	table := dslSumArgs
	if fn == "max" {
		table = dslMaxArgs
	}
	if v, ok := table[arg]; ok && p.peek() == ')' {
		p.pos++
		return v, true, nil
	}
	p.pos = save
	if fn == "sum" {
		return nil, false, fmt.Errorf("sum() takes an aggregate name (delta, absdelta, sqdelta, cur, prev, max)")
	}
	return nil, false, nil
}
