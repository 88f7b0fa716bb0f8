// Package workflow implements the abstract workflow model of paper §2: a DAG
// of processing steps that communicate exclusively through data containers in
// an underlying store, annotated with per-step Quality-of-Data constraints
// (maximum tolerated output error, impact/error metric functions, baseline
// mode). The engine package executes these workflows wave by wave.
package workflow

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"smartflux/internal/kvstore"
	"smartflux/internal/metric"
)

// Errors returned during workflow construction and validation.
var (
	// ErrDuplicateStep is returned when two steps share an ID.
	ErrDuplicateStep = errors.New("workflow: duplicate step id")
	// ErrUnknownStep is returned when referencing a step that was not added.
	ErrUnknownStep = errors.New("workflow: unknown step")
	// ErrCycle is returned when the step graph is not a DAG.
	ErrCycle = errors.New("workflow: dependency cycle")
	// ErrNoSteps is returned when finalizing an empty workflow.
	ErrNoSteps = errors.New("workflow: no steps")
	// ErrNotFinalized is returned when executing a workflow before Finalize.
	ErrNotFinalized = errors.New("workflow: not finalized")
	// ErrInvalidStep is returned for malformed step definitions.
	ErrInvalidStep = errors.New("workflow: invalid step")
)

// StepID identifies a processing step within a workflow.
type StepID string

// Container references a data container: a table, optionally narrowed to a
// column prefix — the paper's "table, column, row or group of any of these".
type Container struct {
	Table        string
	ColumnPrefix string
}

// ParseContainer parses "table" or "table/columnPrefix".
func ParseContainer(s string) (Container, error) {
	if s == "" {
		return Container{}, fmt.Errorf("%w: empty container reference", ErrInvalidStep)
	}
	table, prefix, _ := strings.Cut(s, "/")
	if table == "" {
		return Container{}, fmt.Errorf("%w: container %q has empty table", ErrInvalidStep, s)
	}
	return Container{Table: table, ColumnPrefix: prefix}, nil
}

// String renders the container reference.
func (c Container) String() string {
	if c.ColumnPrefix == "" {
		return c.Table
	}
	return c.Table + "/" + c.ColumnPrefix
}

// Overlaps reports whether two container references can share cells: same
// table, with one column prefix containing the other (an unscoped reference
// overlaps everything on its table).
func (c Container) Overlaps(o Container) bool {
	return containersOverlap(c, o)
}

// Snapshot reads the container's current numeric state from the store as an
// element list; a missing table yields an empty state. The engine reads
// containers as metric.Columns (kvstore.Table.ScanColumns): Snapshot is the
// frozen benchmark's adapter; delete it with ROADMAP.md item 4(b).
//
//sflint:ignore unused only bench/ calls it; bench/ is frozen until ROADMAP item 4, and item 13(b) deletes it after
func (c Container) Snapshot(store *kvstore.Store) metric.State {
	t, err := store.Table(c.Table)
	if err != nil {
		return nil
	}
	cols, _ := t.ScanColumns(kvstore.ScanOptions{ColumnPrefix: c.ColumnPrefix}, nil)
	state := make(metric.State, cols.Len())
	for i, key := range cols.Keys {
		state[i] = metric.Elem{Key: key, Val: cols.Vals[i]}
	}
	return state
}

// Context is passed to step processors. It exposes the shared store and the
// current wave number.
type Context struct {
	// Wave is the 0-based index of the current data wave.
	Wave int
	// Store is the shared data store steps communicate through.
	Store *kvstore.Store
}

// Table is a convenience accessor that creates the table on first use.
func (c *Context) Table(name string) (*kvstore.Table, error) {
	return c.Store.EnsureTable(name, kvstore.TableOptions{})
}

// Processor is a step's computation. Implementations must be deterministic
// functions of their input containers (plus the wave number for sources), so
// that skipping an execution preserves the previous output — the premise of
// the paper's stale-output error model.
type Processor interface {
	Process(ctx *Context) error
}

// ProcessorFunc adapts a function to the Processor interface.
type ProcessorFunc func(ctx *Context) error

// Process implements Processor.
func (f ProcessorFunc) Process(ctx *Context) error { return f(ctx) }

var _ Processor = ProcessorFunc(nil)

// QoD carries a step's Quality-of-Data configuration (§2).
type QoD struct {
	// MaxError is maxε, the maximum tolerated output error in [0, 1].
	// Zero means the step tolerates no error and executes synchronously.
	MaxError float64
	// ImpactFunc names the ι function (default metric.FuncRelativeImpact).
	ImpactFunc string
	// ErrorFunc names the ε function (default metric.FuncRelativeError).
	ErrorFunc string
	// Mode selects baseline semantics (default cancellation).
	Mode metric.Mode
	// Combiner names the multi-input combiner (default geometric-mean).
	Combiner string
}

// withDefaults fills zero fields.
func (q QoD) withDefaults() QoD {
	if q.ImpactFunc == "" {
		q.ImpactFunc = metric.FuncRelativeImpact
	}
	if q.ErrorFunc == "" {
		q.ErrorFunc = metric.FuncRelativeError
	}
	if q.Mode == 0 {
		q.Mode = metric.ModeCancellation
	}
	if q.Combiner == "" {
		q.Combiner = "geometric-mean"
	}
	return q
}

// Step is one processing step of a workflow.
type Step struct {
	// ID uniquely identifies the step.
	ID StepID
	// Inputs are the containers the step reads.
	Inputs []Container
	// Outputs are the containers the step writes.
	Outputs []Container
	// Source marks a step that ingests external data and therefore
	// executes at every wave (paper §2.4 step 1).
	Source bool
	// QoD is the step's Quality-of-Data configuration. Meaningful only
	// for non-source steps with MaxError > 0.
	QoD QoD
	// Proc is the step computation.
	Proc Processor
}

// Gated reports whether the step's triggering is QoD-controlled: non-source
// with a positive error bound.
func (s *Step) Gated() bool {
	return !s.Source && s.QoD.MaxError > 0
}

// validate checks local step invariants.
func (s *Step) validate() error {
	if s.ID == "" {
		return fmt.Errorf("%w: empty id", ErrInvalidStep)
	}
	if s.Proc == nil {
		return fmt.Errorf("%w: step %q has no processor", ErrInvalidStep, s.ID)
	}
	if s.QoD.MaxError < 0 || s.QoD.MaxError > 1 {
		return fmt.Errorf("%w: step %q maxError %v outside [0,1]", ErrInvalidStep, s.ID, s.QoD.MaxError)
	}
	if s.Source && len(s.Inputs) > 0 {
		return fmt.Errorf("%w: source step %q must not declare inputs", ErrInvalidStep, s.ID)
	}
	if len(s.Outputs) == 0 {
		return fmt.Errorf("%w: step %q has no outputs", ErrInvalidStep, s.ID)
	}
	if s.Gated() {
		if _, err := metric.Resolve(s.QoD.ImpactFunc); err != nil {
			return fmt.Errorf("step %q impact: %w", s.ID, err)
		}
		if _, err := metric.Resolve(s.QoD.ErrorFunc); err != nil {
			return fmt.Errorf("step %q error: %w", s.ID, err)
		}
		if _, err := metric.ResolveCombiner(s.QoD.Combiner); err != nil {
			return fmt.Errorf("step %q combiner: %w", s.ID, err)
		}
	}
	return nil
}

// Workflow is a finalized DAG of steps.
type Workflow struct {
	name      string
	steps     map[StepID]*Step
	order     []StepID // topological
	preds     map[StepID][]StepID
	finalized bool
}

// New creates an empty workflow with the given name.
func New(name string) *Workflow {
	return &Workflow{
		name:  name,
		steps: make(map[StepID]*Step),
		preds: make(map[StepID][]StepID),
	}
}

// Name returns the workflow name.
func (w *Workflow) Name() string { return w.name }

// AddStep registers a step. Defaults are applied to its QoD configuration.
func (w *Workflow) AddStep(s *Step) error {
	if w.finalized {
		return errors.New("workflow: cannot add steps after Finalize")
	}
	s.QoD = s.QoD.withDefaults()
	if err := s.validate(); err != nil {
		return err
	}
	if _, ok := w.steps[s.ID]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateStep, s.ID)
	}
	w.steps[s.ID] = s
	return nil
}

// Finalize validates the workflow, derives step dependencies from container
// wiring (a step depends on every producer of each of its input containers)
// and computes a deterministic topological order.
func (w *Workflow) Finalize() error {
	if w.finalized {
		return nil
	}
	if len(w.steps) == 0 {
		return ErrNoSteps
	}

	// Producers by table: prefixes are treated as overlapping when one
	// contains the other or they share a table with either side unscoped.
	producers := make(map[string][]StepID)
	for id, s := range w.steps {
		for _, out := range s.Outputs {
			producers[out.Table] = append(producers[out.Table], id)
		}
	}

	edges := make(map[StepID]map[StepID]struct{})
	addEdge := func(from, to StepID) {
		if from == to {
			return
		}
		if edges[to] == nil {
			edges[to] = make(map[StepID]struct{})
		}
		edges[to][from] = struct{}{}
	}
	for id, s := range w.steps {
		for _, in := range s.Inputs {
			for _, producer := range producers[in.Table] {
				if containersOverlap(in, w.stepOutputOn(producer, in.Table)) {
					addEdge(producer, id)
				}
			}
		}
	}

	// Deterministic topological sort (Kahn with sorted tie-breaking).
	indegree := make(map[StepID]int, len(w.steps))
	ids := make([]StepID, 0, len(w.steps))
	for id := range w.steps {
		ids = append(ids, id)
		indegree[id] = len(edges[id])
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	succs := make(map[StepID][]StepID)
	for to, froms := range edges {
		for from := range froms {
			succs[from] = append(succs[from], to)
		}
	}

	var ready []StepID
	for _, id := range ids {
		if indegree[id] == 0 {
			ready = append(ready, id)
		}
	}
	var order []StepID
	for len(ready) > 0 {
		sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
		id := ready[0]
		ready = ready[1:]
		order = append(order, id)
		for _, next := range succs[id] {
			indegree[next]--
			if indegree[next] == 0 {
				ready = append(ready, next)
			}
		}
	}
	if len(order) != len(w.steps) {
		return ErrCycle
	}

	preds := make(map[StepID][]StepID, len(edges))
	for to, froms := range edges {
		list := make([]StepID, 0, len(froms))
		for from := range froms {
			list = append(list, from)
		}
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		preds[to] = list
	}

	w.order = order
	w.preds = preds
	w.finalized = true
	return nil
}

// stepOutputOn returns the producer's output container on the given table.
func (w *Workflow) stepOutputOn(id StepID, table string) Container {
	for _, out := range w.steps[id].Outputs {
		if out.Table == table {
			return out
		}
	}
	return Container{Table: table}
}

// containersOverlap reports whether two references to the same table can
// share cells.
func containersOverlap(a, b Container) bool {
	if a.Table != b.Table {
		return false
	}
	return strings.HasPrefix(a.ColumnPrefix, b.ColumnPrefix) ||
		strings.HasPrefix(b.ColumnPrefix, a.ColumnPrefix)
}

// Order returns the step IDs in topological order.
func (w *Workflow) Order() ([]StepID, error) {
	if !w.finalized {
		return nil, ErrNotFinalized
	}
	out := make([]StepID, len(w.order))
	copy(out, w.order)
	return out, nil
}

// Step returns a step by ID.
func (w *Workflow) Step(id StepID) (*Step, error) {
	s, ok := w.steps[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownStep, id)
	}
	return s, nil
}

// Predecessors returns the direct upstream steps of id.
func (w *Workflow) Predecessors(id StepID) []StepID {
	out := make([]StepID, len(w.preds[id]))
	copy(out, w.preds[id])
	return out
}

// GatedSteps returns, in topological order, the steps whose triggering is
// QoD-controlled.
func (w *Workflow) GatedSteps() ([]StepID, error) {
	if !w.finalized {
		return nil, ErrNotFinalized
	}
	var out []StepID
	for _, id := range w.order {
		if w.steps[id].Gated() {
			out = append(out, id)
		}
	}
	return out, nil
}
