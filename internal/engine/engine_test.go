package engine

import (
	"maps"
	"math"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"smartflux/internal/kvstore"
	"smartflux/internal/metric"
	"smartflux/internal/workflow"
)

// DeciderFunc adapts a function to the Decider interface.
type DeciderFunc struct {
	// PolicyName is returned by Name.
	PolicyName string
	// Fn is invoked by Decide.
	Fn func(wave, stepIdx int, impacts []float64) bool
}

// Name implements Decider.
func (d DeciderFunc) Name() string { return d.PolicyName }

// Decide implements Decider.
func (d DeciderFunc) Decide(wave, stepIdx int, impacts []float64) bool {
	return d.Fn(wave, stepIdx, impacts)
}

// testWorkload is a tiny deterministic 3-step pipeline used across engine
// tests: source writes a ramp+noise signal, mid averages it, leaf scales the
// average.
func testWorkload(maxErr float64) BuildFunc {
	return func() (*workflow.Workflow, *kvstore.Store, error) {
		store := kvstore.New()
		wf := workflow.New("test")
		steps := []*workflow.Step{
			{
				ID:      "src",
				Source:  true,
				Outputs: []workflow.Container{{Table: "raw"}},
				Proc: workflow.ProcessorFunc(func(ctx *workflow.Context) error {
					t, err := ctx.Table("raw")
					if err != nil {
						return err
					}
					batch := kvstore.NewBatch()
					for i := 0; i < 8; i++ {
						v := 50 + 10*math.Sin(float64(ctx.Wave)/5+float64(i))
						batch.PutFloat("r"+strconv.Itoa(i), "v", v)
					}
					return t.Apply(batch)
				}),
			},
			{
				ID:      "mid",
				Inputs:  []workflow.Container{{Table: "raw"}},
				Outputs: []workflow.Container{{Table: "avg"}},
				QoD: workflow.QoD{
					MaxError:   maxErr,
					ImpactFunc: metric.FuncAbsoluteImpact,
					ErrorFunc:  metric.FuncRelativeError,
					Mode:       metric.ModeAccumulate,
				},
				Proc: workflow.ProcessorFunc(func(ctx *workflow.Context) error {
					raw, err := ctx.Table("raw")
					if err != nil {
						return err
					}
					out, err := ctx.Table("avg")
					if err != nil {
						return err
					}
					// Sum in scan order: processors must be deterministic
					// functions of their inputs.
					var sum float64
					var n int
					for _, c := range raw.Scan(kvstore.ScanOptions{}) {
						v, ok := c.FloatValue()
						if !ok {
							continue
						}
						sum += v
						n++
					}
					if n == 0 {
						return nil
					}
					return out.PutFloat("all", "avg", sum/float64(n))
				}),
			},
			{
				ID:      "leaf",
				Inputs:  []workflow.Container{{Table: "avg"}},
				Outputs: []workflow.Container{{Table: "scaled"}},
				QoD: workflow.QoD{
					MaxError:   maxErr,
					ImpactFunc: metric.FuncRelativeImpact,
					ErrorFunc:  metric.FuncRelativeError,
					Mode:       metric.ModeAccumulate,
				},
				Proc: workflow.ProcessorFunc(func(ctx *workflow.Context) error {
					avg, err := ctx.Table("avg")
					if err != nil {
						return err
					}
					out, err := ctx.Table("scaled")
					if err != nil {
						return err
					}
					v, ok := avg.GetFloat("all", "avg")
					if !ok {
						return nil
					}
					return out.PutFloat("all", "scaled", 2*v+10)
				}),
			},
		}
		for _, s := range steps {
			if err := wf.AddStep(s); err != nil {
				return nil, nil, err
			}
		}
		if err := wf.Finalize(); err != nil {
			return nil, nil, err
		}
		return wf, store, nil
	}
}

func newTestInstance(t *testing.T, maxErr float64, training bool) *Instance {
	t.Helper()
	wf, store, err := testWorkload(maxErr)()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(wf, store, InstanceConfig{TrainingMode: training})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestPolicies(t *testing.T) {
	if !(Sync{}).Decide(3, 1, nil) {
		t.Error("sync must always execute")
	}
	if (Sync{}).Name() != "sync" {
		t.Error("sync name")
	}

	seq := NewSeq(3)
	if seq.Name() != "seq3" {
		t.Errorf("seq name = %q", seq.Name())
	}
	var fired int
	for w := 0; w < 9; w++ {
		if seq.Decide(w, 0, nil) {
			fired++
		}
	}
	if fired != 3 {
		t.Errorf("seq3 fired %d times in 9 waves, want 3", fired)
	}
	if NewSeq(0).N != 1 {
		t.Error("seq must clamp N to 1")
	}

	random := NewRandom(0.5, 1)
	var hits int
	const trials = 2000
	for i := 0; i < trials; i++ {
		if random.Decide(i, 0, nil) {
			hits++
		}
	}
	if ratio := float64(hits) / trials; ratio < 0.45 || ratio > 0.55 {
		t.Errorf("random(0.5) hit ratio %.3f", ratio)
	}
	for _, p := range []float64{2.0, math.NaN()} {
		if NewRandom(p, 1).p != 0.5 {
			t.Errorf("probability %v must default to 0.5", p)
		}
	}

	oracle := &Oracle{Labels: []int{1, 0}}
	if !oracle.Decide(0, 0, nil) || oracle.Decide(0, 1, nil) {
		t.Error("oracle must replay labels")
	}
	if !oracle.Decide(0, 5, nil) {
		t.Error("oracle must fail open for out-of-range steps")
	}
}

func TestInstanceSyncWave(t *testing.T) {
	inst := newTestInstance(t, 0.1, true)
	res, err := inst.RunWave(Sync{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Wave != 0 || inst.Wave() != 1 {
		t.Errorf("wave bookkeeping: res=%d inst=%d", res.Wave, inst.Wave())
	}
	if res.TotalExecutions != 3 {
		t.Errorf("TotalExecutions = %d, want 3", res.TotalExecutions)
	}
	if res.GatedExecutions != 2 {
		t.Errorf("GatedExecutions = %d, want 2", res.GatedExecutions)
	}
	if len(res.Impacts) != 2 || len(res.Labels) != 2 {
		t.Fatalf("result shapes: %+v", res)
	}
	// First wave: baselines established, labels 0.
	for i, l := range res.Labels {
		if l != 0 {
			t.Errorf("label[%d] = %d on first wave", i, l)
		}
	}
}

func TestInstanceGatedStepsSkipWhenPolicySaysNo(t *testing.T) {
	inst := newTestInstance(t, 0.1, false)
	never := DeciderFunc{PolicyName: "never", Fn: func(_, _ int, _ []float64) bool { return false }}
	for w := 0; w < 5; w++ {
		res, err := inst.RunWave(never)
		if err != nil {
			t.Fatal(err)
		}
		if res.GatedExecutions != 0 {
			t.Fatalf("wave %d executed %d gated steps under never-policy", w, res.GatedExecutions)
		}
		if res.TotalExecutions != 1 { // only the source
			t.Fatalf("wave %d total executions %d", w, res.TotalExecutions)
		}
	}
	// Impacts keep accumulating while skipping (accumulate mode).
	res, _ := inst.RunWave(never)
	if res.Impacts[inst.GatedIndex("mid")] == 0 {
		t.Error("impact should accumulate while skipping")
	}
}

func TestInstanceDownstreamWaitsForUpstreamFirstExecution(t *testing.T) {
	inst := newTestInstance(t, 0.1, false)
	// Policy: leaf always wants to run, mid never does.
	leafOnly := DeciderFunc{PolicyName: "leafOnly", Fn: func(_, idx int, _ []float64) bool {
		return inst.GatedSteps()[idx] == "leaf"
	}}
	res, err := inst.RunWave(leafOnly)
	if err != nil {
		t.Fatal(err)
	}
	// mid has never executed, so leaf must not run (§2 precondition).
	if res.Executed[inst.GatedIndex("leaf")] {
		t.Error("leaf ran before its predecessor ever executed")
	}
}

func TestInstanceTrainingLabels(t *testing.T) {
	inst := newTestInstance(t, 0.02, true)
	var positives int
	for w := 0; w < 40; w++ {
		res, err := inst.RunWave(Sync{})
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range res.Labels {
			if l == 1 {
				positives++
			}
		}
	}
	if positives == 0 {
		t.Error("a tight bound over a moving signal must produce positive labels")
	}
}

func TestInstanceOutputState(t *testing.T) {
	inst := newTestInstance(t, 0.1, true)
	if _, err := inst.RunWave(Sync{}); err != nil {
		t.Fatal(err)
	}
	state := inst.OutputState("mid")
	if state.Len() != 1 || state.Keys[0] != "avg:all/avg" {
		t.Fatalf("OutputState = %v", state)
	}
	if got := inst.OutputState("ghost"); got.Len() != 0 {
		t.Error("unknown step output state must be empty")
	}
}

// mergeWorkload is a source and two multi-output steps: "grid" writes
// columns "a", "ab" and "b" of every row of table grid and declares the
// prefixes "b", "a" and "ab", so their elements interleave and repeat (every
// "ab" cell is an "a" cell too); "fan" writes tables "g:h" and "g", declared
// in that order, reverse to their names, and keyed so that row "r" of "g:h"
// and row "h:r" of "g" merge to one key, "g:h:r/v".
func mergeWorkload() (*workflow.Workflow, *kvstore.Store, error) {
	qod := workflow.QoD{
		MaxError:   0.05,
		ImpactFunc: metric.FuncAbsoluteImpact,
		ErrorFunc:  metric.FuncRelativeError,
		Mode:       metric.ModeAccumulate,
	}
	put := func(ctx *workflow.Context, table, row, col string, v float64) error {
		t, err := ctx.Table(table)
		if err != nil {
			return err
		}
		return t.PutFloat(row, col, v)
	}
	wf := workflow.New("merge")
	steps := []*workflow.Step{
		{
			ID:      "src",
			Source:  true,
			Outputs: []workflow.Container{{Table: "raw"}},
			Proc: workflow.ProcessorFunc(func(ctx *workflow.Context) error {
				for i := 0; i < 3; i++ {
					if err := put(ctx, "raw", "r"+strconv.Itoa(i), "v", float64(ctx.Wave*10+i)); err != nil {
						return err
					}
				}
				return nil
			}),
		},
		{
			ID:      "grid",
			Inputs:  []workflow.Container{{Table: "raw"}},
			Outputs: []workflow.Container{{Table: "grid", ColumnPrefix: "b"}, {Table: "grid", ColumnPrefix: "a"}, {Table: "grid", ColumnPrefix: "ab"}},
			QoD:     qod,
			Proc: workflow.ProcessorFunc(func(ctx *workflow.Context) error {
				raw, err := ctx.Table("raw")
				if err != nil {
					return err
				}
				for _, c := range raw.Scan(kvstore.ScanOptions{}) {
					v, _ := c.FloatValue()
					for k, col := range []string{"a", "ab", "b"} {
						if err := put(ctx, "grid", c.Row, col, v+float64(k)/4); err != nil {
							return err
						}
					}
				}
				return nil
			}),
		},
		{
			ID:      "fan",
			Inputs:  []workflow.Container{{Table: "raw"}},
			Outputs: []workflow.Container{{Table: "g:h"}, {Table: "g"}},
			QoD:     qod,
			Proc: workflow.ProcessorFunc(func(ctx *workflow.Context) error {
				raw, err := ctx.Table("raw")
				if err != nil {
					return err
				}
				v, _ := raw.GetFloat("r0", "v")
				for _, w := range []struct{ table, row, col string }{{"g:h", "r", "v"}, {"g:h", "s", "v"}, {"g", "h:r", "v"}, {"g", "a", "v"}} {
					if err := put(ctx, w.table, w.row, w.col, v); err != nil {
						return err
					}
					v++
				}
				return nil
			}),
		},
	}
	for _, s := range steps {
		if err := wf.AddStep(s); err != nil {
			return nil, nil, err
		}
	}
	return wf, kvstore.New(), wf.Finalize()
}

// referenceOutput is a step's merged output built the plain way: every float
// cell of every output container, in declaration order, into a map keyed
// "table:row/column" (so the later output's value stands), read out in key
// order.
func referenceOutput(t *testing.T, store *kvstore.Store, step *workflow.Step) metric.Columns {
	t.Helper()
	vals := make(map[string]float64)
	for _, out := range step.Outputs {
		table, err := store.Table(out.Table)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range table.Scan(kvstore.ScanOptions{ColumnPrefix: out.ColumnPrefix}) {
			if v, ok := c.FloatValue(); ok {
				vals[out.Table+":"+c.Row+"/"+c.Column] = v
			}
		}
	}
	ref := metric.Columns{Keys: slices.Sorted(maps.Keys(vals))}
	for _, key := range ref.Keys {
		ref.Vals = append(ref.Vals, vals[key])
	}
	return ref
}

// TestOutputStateMergeOrder holds OutputState and HypotheticalOutput of the
// two multi-output steps of mergeWorkload to referenceOutput, on outputs that
// are current and on outputs a skipping policy left stale.
func TestOutputStateMergeOrder(t *testing.T) {
	wf, store, err := mergeWorkload()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(wf, store, InstanceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	never := DeciderFunc{PolicyName: "never", Fn: func(_, _ int, _ []float64) bool { return false }}
	equal := func(a, b metric.Columns) bool { return slices.Equal(a.Keys, b.Keys) && slices.Equal(a.Vals, b.Vals) }
	for w, d := range []Decider{Sync{}, never, never} {
		if _, err := inst.RunWave(d); err != nil {
			t.Fatal(err)
		}
		for _, id := range []workflow.StepID{"grid", "fan"} {
			step, err := wf.Step(id)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := inst.OutputState(id), referenceOutput(t, store, step); !equal(got, want) {
				t.Fatalf("wave %d %s: OutputState = %v, want %v", w, id, got, want)
			}
			fresh, err := inst.HypotheticalOutput(id)
			if err != nil {
				t.Fatal(err)
			}
			// The processors read only raw, which the hypothetical run
			// leaves alone: running one again gives the fresh output.
			before := inst.OutputState(id)
			if err := step.Proc.Process(&workflow.Context{Wave: w, Store: store}); err != nil {
				t.Fatal(err)
			}
			if want := referenceOutput(t, store, step); !equal(fresh, want) || w > 0 && equal(fresh, before) {
				t.Fatalf("wave %d %s: HypotheticalOutput = %v, want %v (stale %v)", w, id, fresh, want, before)
			}
		}
		// Row "r" of "g:h" (raw r0) and row "h:r" of "g" (raw r0 + 2) are
		// one element, and the later output, "g", gives its value.
		v := float64(w * 10)
		want := metric.Columns{Keys: []string{"g:a/v", "g:h:r/v", "g:h:s/v"}, Vals: []float64{v + 3, v + 2, v + 1}}
		if got := inst.OutputState("fan"); !equal(got, want) {
			t.Fatalf("wave %d fan: OutputState = %v, want %v", w, got, want)
		}
	}
}

func TestHypotheticalOutputRollsBack(t *testing.T) {
	inst := newTestInstance(t, 0.1, false)
	never := DeciderFunc{PolicyName: "never", Fn: func(_, _ int, _ []float64) bool { return false }}
	if _, err := inst.RunWave(Sync{}); err != nil { // prime everything
		t.Fatal(err)
	}
	for w := 0; w < 3; w++ { // let the signal drift while mid skips
		if _, err := inst.RunWave(never); err != nil {
			t.Fatal(err)
		}
	}
	before := inst.OutputState("mid")
	fresh, err := inst.HypotheticalOutput("mid")
	if err != nil {
		t.Fatal(err)
	}
	after := inst.OutputState("mid")

	if fresh.Len() != 1 || fresh.Keys[0] != "avg:all/avg" {
		t.Fatalf("hypothetical output = %v", fresh)
	}
	if fresh.Vals[0] == before.Vals[0] {
		t.Error("hypothetical output should differ from the stale output after drift")
	}
	if !reflect.DeepEqual(after, before) {
		t.Error("HypotheticalOutput must roll the container back")
	}
	if _, err := inst.HypotheticalOutput("ghost"); err == nil {
		t.Error("unknown step must fail")
	}
}

func TestHarnessSyncPolicyNeverViolates(t *testing.T) {
	h, err := NewHarness(testWorkload(0.1), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Run(30, Sync{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "sync" || res.Waves != 30 {
		t.Errorf("result header: %+v", res.Policy)
	}
	report := res.Reports["leaf"]
	if report == nil {
		t.Fatal("default report step should be the last gated step (leaf)")
	}
	if report.ViolationCount() != 0 {
		t.Errorf("sync policy produced %d violations", report.ViolationCount())
	}
	for _, m := range report.Measured {
		if m != 0 {
			t.Fatalf("sync measured error %v, want 0", m)
		}
	}
	if res.SavingsRatio() != 0 {
		t.Errorf("sync savings = %v", res.SavingsRatio())
	}
	conf := report.Confidence()
	if conf[len(conf)-1] != 1 {
		t.Error("sync confidence must be 1")
	}
}

func TestHarnessSeqPolicySavesExecutions(t *testing.T) {
	h, err := NewHarness(testWorkload(0.1), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Run(30, NewSeq(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalLiveExecutions() >= res.TotalSyncExecutions() {
		t.Error("seq3 must execute fewer steps than sync")
	}
	want := 1 - 1.0/3
	if math.Abs(res.SavingsRatio()-want) > 0.1 {
		t.Errorf("savings = %v, want ≈ %v", res.SavingsRatio(), want)
	}
	if got := len(res.LiveExecutionsPerWave()); got != 30 {
		t.Errorf("per-wave series length %d", got)
	}
}

func TestHarnessOracleMatchesOptimal(t *testing.T) {
	h, err := NewHarness(testWorkload(0.05), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Run(40, &Oracle{})
	if err != nil {
		t.Fatal(err)
	}
	live, optimal := res.TotalLiveExecutions(), res.TotalOptimalExecutions()
	if diff := live - optimal; diff < -3 || diff > 3 {
		t.Errorf("oracle live %d vs optimal %d", live, optimal)
	}
	report := res.Reports["leaf"]
	conf := report.Confidence()
	if conf[len(conf)-1] < 0.9 {
		t.Errorf("oracle confidence %.3f", conf[len(conf)-1])
	}
}

func TestHarnessReportStepValidation(t *testing.T) {
	if _, err := NewHarness(testWorkload(0.1), []workflow.StepID{"src"}); err == nil {
		t.Error("non-gated report step must fail")
	}
	if _, err := NewHarness(testWorkload(0.1), []workflow.StepID{"mid"}); err != nil {
		t.Errorf("gated report step: %v", err)
	}
}

func TestHarnessDeviationAndEndToEnd(t *testing.T) {
	h, err := NewHarness(testWorkload(0.05), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Run(25, NewSeq(4))
	if err != nil {
		t.Fatal(err)
	}
	report := res.Reports["leaf"]
	dev := report.Deviation()
	if len(dev) != 25 || len(report.EndToEnd) != 25 || len(report.Predicted) != 25 {
		t.Fatal("series lengths")
	}
	for i := range dev {
		if math.Abs(dev[i]-(report.Predicted[i]-report.Measured[i])) > 1e-12 {
			t.Fatal("Deviation must equal Predicted - Measured")
		}
	}
	// Right after a seq4 execution the measured error resets to ~0.
	var sawReset bool
	for w, row := range res.LiveExecuted {
		if row[h.live.GatedIndex("leaf")] && report.Measured[w] == 0 {
			sawReset = true
		}
	}
	if !sawReset {
		t.Error("measured error should reset on execution waves")
	}
}

func TestNormalizedExecutionsBounded(t *testing.T) {
	h, err := NewHarness(testWorkload(0.1), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Run(20, NewRandom(0.5, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.NormalizedExecutions() {
		if v < 0 || v > 1 {
			t.Fatalf("normalized executions out of range: %v", v)
		}
	}
}

func TestStepReportEmptySeries(t *testing.T) {
	r := &StepReport{MaxError: 0.1}
	if dev := r.Deviation(); len(dev) != 0 {
		t.Fatalf("Deviation on empty series = %v, want empty", dev)
	}
	if conf := r.Confidence(); len(conf) != 0 {
		t.Fatalf("Confidence on empty series = %v, want empty", conf)
	}
	if n := r.ViolationCount(); n != 0 {
		t.Fatalf("ViolationCount on empty series = %d, want 0", n)
	}
}

func TestStepReportSingleWave(t *testing.T) {
	r := &StepReport{
		MaxError:   0.1,
		Measured:   []float64{0.05},
		Predicted:  []float64{0.08},
		Violations: []bool{false},
	}
	dev := r.Deviation()
	if len(dev) != 1 || dev[0] != 0.08-0.05 {
		t.Fatalf("Deviation = %v, want [0.03]", dev)
	}
	conf := r.Confidence()
	if len(conf) != 1 || conf[0] != 1 {
		t.Fatalf("Confidence = %v, want [1]", conf)
	}
	if n := r.ViolationCount(); n != 0 {
		t.Fatalf("ViolationCount = %d, want 0", n)
	}

	r.Violations[0] = true
	conf = r.Confidence()
	if len(conf) != 1 || conf[0] != 0 {
		t.Fatalf("Confidence after violation = %v, want [0]", conf)
	}
	if n := r.ViolationCount(); n != 1 {
		t.Fatalf("ViolationCount = %d, want 1", n)
	}
}
