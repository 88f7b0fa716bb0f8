package workflow

import (
	"errors"
	"reflect"
	"testing"

	"smartflux/internal/kvstore"
	"smartflux/internal/metric"
)

// nop is a do-nothing processor for structural tests.
var nop = ProcessorFunc(func(*Context) error { return nil })

// step builds a minimal valid step.
func step(id string, inputs, outputs []string) *Step {
	s := &Step{ID: StepID(id), Proc: nop}
	for _, in := range inputs {
		c, _ := ParseContainer(in)
		s.Inputs = append(s.Inputs, c)
	}
	for _, out := range outputs {
		c, _ := ParseContainer(out)
		s.Outputs = append(s.Outputs, c)
	}
	if len(inputs) == 0 {
		s.Source = true
	}
	return s
}

// gated marks a step error-tolerant.
func gated(s *Step, maxErr float64) *Step {
	s.QoD.MaxError = maxErr
	return s
}

func TestParseContainer(t *testing.T) {
	c, err := ParseContainer("table")
	if err != nil || c.Table != "table" || c.ColumnPrefix != "" {
		t.Errorf("ParseContainer(table) = %+v, %v", c, err)
	}
	c, err = ParseContainer("table/prefix")
	if err != nil || c.Table != "table" || c.ColumnPrefix != "prefix" {
		t.Errorf("ParseContainer(table/prefix) = %+v, %v", c, err)
	}
	if _, err := ParseContainer(""); err == nil {
		t.Error("empty reference must fail")
	}
	if _, err := ParseContainer("/col"); err == nil {
		t.Error("empty table must fail")
	}
	if got := (Container{Table: "t", ColumnPrefix: "p"}).String(); got != "t/p" {
		t.Errorf("String = %q", got)
	}
}

func TestAddStepValidation(t *testing.T) {
	tests := []struct {
		name    string
		step    *Step
		wantErr error
	}{
		{name: "empty id", step: &Step{Proc: nop, Outputs: []Container{{Table: "t"}}}, wantErr: ErrInvalidStep},
		{name: "nil proc", step: &Step{ID: "a", Outputs: []Container{{Table: "t"}}}, wantErr: ErrInvalidStep},
		{name: "no outputs", step: &Step{ID: "a", Proc: nop}, wantErr: ErrInvalidStep},
		{
			name:    "bad max error",
			step:    &Step{ID: "a", Proc: nop, Outputs: []Container{{Table: "t"}}, QoD: QoD{MaxError: 1.5}},
			wantErr: ErrInvalidStep,
		},
		{
			name: "source with inputs",
			step: &Step{
				ID: "a", Proc: nop, Source: true,
				Inputs:  []Container{{Table: "in"}},
				Outputs: []Container{{Table: "t"}},
			},
			wantErr: ErrInvalidStep,
		},
		{
			name: "bad impact func",
			step: &Step{
				ID: "a", Proc: nop,
				Inputs:  []Container{{Table: "in"}},
				Outputs: []Container{{Table: "t"}},
				QoD:     QoD{MaxError: 0.1, ImpactFunc: "bogus"},
			},
			wantErr: metric.ErrUnknownFunc,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			w := New("w")
			if err := w.AddStep(tt.step); !errors.Is(err, tt.wantErr) {
				t.Errorf("got %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestAddStepDuplicate(t *testing.T) {
	w := New("w")
	if err := w.AddStep(step("a", nil, []string{"t"})); err != nil {
		t.Fatal(err)
	}
	if err := w.AddStep(step("a", nil, []string{"u"})); !errors.Is(err, ErrDuplicateStep) {
		t.Errorf("want ErrDuplicateStep, got %v", err)
	}
}

func TestQoDDefaultsApplied(t *testing.T) {
	w := New("w")
	s := gated(step("b", []string{"t"}, []string{"u"}), 0.1)
	if err := w.AddStep(s); err != nil {
		t.Fatal(err)
	}
	if s.QoD.ImpactFunc != metric.FuncRelativeImpact ||
		s.QoD.ErrorFunc != metric.FuncRelativeError ||
		s.QoD.Mode != metric.ModeCancellation ||
		s.QoD.Combiner != "geometric-mean" {
		t.Errorf("defaults not applied: %+v", s.QoD)
	}
}

// buildDiamond constructs source -> (b, c) -> d.
func buildDiamond(t *testing.T) *Workflow {
	t.Helper()
	w := New("diamond")
	steps := []*Step{
		step("a", nil, []string{"raw"}),
		gated(step("b", []string{"raw"}, []string{"left"}), 0.1),
		gated(step("c", []string{"raw"}, []string{"right"}), 0.1),
		gated(step("d", []string{"left", "right"}, []string{"out"}), 0.1),
	}
	for _, s := range steps {
		if err := w.AddStep(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestFinalizeTopologicalOrder(t *testing.T) {
	w := buildDiamond(t)
	order, err := w.Order()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[StepID]int, len(order))
	for i, id := range order {
		pos[id] = i
	}
	if !(pos["a"] < pos["b"] && pos["a"] < pos["c"] && pos["b"] < pos["d"] && pos["c"] < pos["d"]) {
		t.Errorf("bad topological order %v", order)
	}
}

func TestFinalizeDerivesDependencies(t *testing.T) {
	w := buildDiamond(t)
	if got := w.Predecessors("d"); !reflect.DeepEqual(got, []StepID{"b", "c"}) {
		t.Errorf("Predecessors(d) = %v", got)
	}
	if got := w.Predecessors("a"); len(got) != 0 {
		t.Errorf("Predecessors(a) = %v", got)
	}
}

func TestFinalizeCycleDetection(t *testing.T) {
	w := New("cyclic")
	a := step("a", []string{"y"}, []string{"x"})
	a.Source = false
	b := step("b", []string{"x"}, []string{"y"})
	b.Source = false
	if err := w.AddStep(a); err != nil {
		t.Fatal(err)
	}
	if err := w.AddStep(b); err != nil {
		t.Fatal(err)
	}
	if err := w.Finalize(); !errors.Is(err, ErrCycle) {
		t.Errorf("want ErrCycle, got %v", err)
	}
}

func TestFinalizeEmpty(t *testing.T) {
	if err := New("w").Finalize(); !errors.Is(err, ErrNoSteps) {
		t.Errorf("want ErrNoSteps, got %v", err)
	}
}

func TestAfterDependencies(t *testing.T) {
	w := New("after")
	if err := w.AddStep(step("a", nil, []string{"t1"})); err != nil {
		t.Fatal(err)
	}
	b := step("b", nil, []string{"t2"})
	b.After = []StepID{"a"}
	if err := w.AddStep(b); err != nil {
		t.Fatal(err)
	}
	if err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := w.Predecessors("b"); !reflect.DeepEqual(got, []StepID{"a"}) {
		t.Errorf("After dependency missing: %v", got)
	}
}

func TestAfterUnknownStep(t *testing.T) {
	w := New("after")
	b := step("b", nil, []string{"t"})
	b.After = []StepID{"ghost"}
	if err := w.AddStep(b); err != nil {
		t.Fatal(err)
	}
	if err := w.Finalize(); !errors.Is(err, ErrUnknownStep) {
		t.Errorf("want ErrUnknownStep, got %v", err)
	}
}

func TestColumnPrefixOverlap(t *testing.T) {
	// Producer writes t/a, consumer reads t/ab: overlapping prefixes
	// imply a dependency; disjoint prefixes do not.
	w := New("prefix")
	producer := step("p", nil, []string{"t/a"})
	consumer := gated(step("c", []string{"t/ab"}, []string{"out"}), 0.1)
	other := gated(step("o", []string{"t/zz"}, []string{"out2"}), 0.1)
	for _, s := range []*Step{producer, consumer, other} {
		if err := w.AddStep(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := w.Predecessors("c"); !reflect.DeepEqual(got, []StepID{"p"}) {
		t.Errorf("overlapping prefix dependency missing: %v", got)
	}
	if got := w.Predecessors("o"); len(got) != 0 {
		t.Errorf("disjoint prefixes must not depend: %v", got)
	}
}

func TestGatedSteps(t *testing.T) {
	w := buildDiamond(t)
	gatedSteps, err := w.GatedSteps()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gatedSteps, []StepID{"b", "c", "d"}) {
		t.Errorf("GatedSteps = %v", gatedSteps)
	}
}

func TestAccessorsBeforeFinalize(t *testing.T) {
	w := New("w")
	if err := w.AddStep(step("a", nil, []string{"t"})); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Order(); !errors.Is(err, ErrNotFinalized) {
		t.Errorf("Order: want ErrNotFinalized, got %v", err)
	}
	if _, err := w.GatedSteps(); !errors.Is(err, ErrNotFinalized) {
		t.Errorf("GatedSteps: want ErrNotFinalized, got %v", err)
	}
}

func TestAddStepAfterFinalize(t *testing.T) {
	w := buildDiamond(t)
	if err := w.AddStep(step("z", nil, []string{"zz"})); err == nil {
		t.Error("AddStep after Finalize must fail")
	}
	if !w.finalized {
		t.Error("finalized = false")
	}
	if err := w.Finalize(); err != nil {
		t.Errorf("repeated Finalize: %v", err)
	}
}

func TestStepLookup(t *testing.T) {
	w := buildDiamond(t)
	if _, err := w.Step("a"); err != nil {
		t.Errorf("Step(a): %v", err)
	}
	if _, err := w.Step("ghost"); !errors.Is(err, ErrUnknownStep) {
		t.Errorf("want ErrUnknownStep, got %v", err)
	}
	if len(w.steps) != 4 {
		t.Errorf("%d steps, want 4", len(w.steps))
	}
	if w.Name() != "diamond" {
		t.Errorf("Name = %q", w.Name())
	}
}

func TestContainerSnapshot(t *testing.T) {
	store := kvstore.New()
	table, err := store.CreateTable("t", kvstore.TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	table.PutFloat("r", "ax", 1)
	table.PutFloat("r", "bx", 2)

	c := Container{Table: "t", ColumnPrefix: "a"}
	state := c.Snapshot(store)
	if len(state) != 1 || state[0].Key != "r/ax" || state[0].Val != 1 {
		t.Errorf("Snapshot = %v", state)
	}
	missing := Container{Table: "ghost"}
	if got := missing.Snapshot(store); len(got) != 0 {
		t.Errorf("missing table snapshot = %v", got)
	}
}

func TestContextTable(t *testing.T) {
	ctx := &Context{Wave: 0, Store: kvstore.New()}
	tbl, err := ctx.Table("fresh")
	if err != nil || tbl == nil {
		t.Fatalf("ctx.Table: %v", err)
	}
	// Second call returns the same table.
	again, err := ctx.Table("fresh")
	if err != nil || again != tbl {
		t.Error("ctx.Table must be idempotent")
	}
}
