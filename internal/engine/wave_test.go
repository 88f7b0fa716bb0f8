package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"smartflux/internal/kvstore"
	"smartflux/internal/metric"
	"smartflux/internal/obs"
	"smartflux/internal/workflow"
)

// newWorkloadInstance builds one instance of a workload.
func newWorkloadInstance(t *testing.T, build BuildFunc, training bool) *Instance {
	t.Helper()
	wf, store, err := build()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(wf, store, InstanceConfig{TrainingMode: training})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// countingStep wraps build so each built copy counts, per wave, how often the
// named step's processor is called. The counts of the copies land in *out in
// build order.
func countingStep(build BuildFunc, stepID workflow.StepID, out *[]map[int]int) BuildFunc {
	return func() (*workflow.Workflow, *kvstore.Store, error) {
		wf, store, err := build()
		if err != nil {
			return nil, nil, err
		}
		step, err := wf.Step(stepID)
		if err != nil {
			return nil, nil, err
		}
		inner, calls := step.Proc, make(map[int]int)
		*out = append(*out, calls)
		step.Proc = workflow.ProcessorFunc(func(ctx *workflow.Context) error {
			calls[ctx.Wave]++
			return inner.Process(ctx)
		})
		return wf, store, nil
	}
}

// TestFailedStepStopsItsConsumers pins the error rule: when mid fails, leaf
// — which reads its output — does not run on mid's stale output, the error
// blames mid, the instance is back in its pre-wave state, and a harness that
// retries the wave ends up with the fault-free result.
func TestFailedStepStopsItsConsumers(t *testing.T) {
	const failWave = 3
	var calls []map[int]int
	build := countingStep(hookedWorkload(0.05, "mid", failFirstAttemptFrom(failWave)), "leaf", &calls)
	in := buildInstance(t, build, InstanceConfig{})
	for w := 0; w < failWave; w++ {
		if _, err := in.RunWave(Sync{}); err != nil {
			t.Fatal(err)
		}
	}
	before := in.PersistState()
	_, err := in.RunWave(Sync{})
	if !errors.Is(err, errBoom) || !strings.Contains(err.Error(), `step "mid"`) {
		t.Fatalf("err = %v, want errBoom blamed on mid", err)
	}
	if n := calls[0][failWave]; n != 0 {
		t.Errorf("leaf ran %d times in the wave its predecessor failed", n)
	}
	if after := in.PersistState(); !reflect.DeepEqual(after, before) {
		t.Errorf("a failed wave left instance state behind:\n%+v\nwant\n%+v", after, before)
	}

	faulty, err := NewHarnessWithConfig(build, nil, HarnessConfig{WaveRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := NewHarnessWithConfig(testWorkload(0.05), nil, HarnessConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := faulty.Run(2*failWave, Sync{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.Run(2*failWave, Sync{})
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, got, want)
}

// chainQoD is the gated QoD of the hooked test chains.
var chainQoD = workflow.QoD{
	MaxError:   0.05,
	ImpactFunc: metric.FuncAbsoluteImpact,
	ErrorFunc:  metric.FuncRelativeError,
	Mode:       metric.ModeAccumulate,
}

// hookedStep is a step writing the wave number to table out, reading table
// in (a source when in is ""). Its processor calls hook first.
func hookedStep(id workflow.StepID, in, out string, qod workflow.QoD, hook func(id workflow.StepID, wave int) error) *workflow.Step {
	s := &workflow.Step{
		ID:      id,
		Source:  in == "",
		Outputs: []workflow.Container{{Table: out}},
		QoD:     qod,
		Proc: workflow.ProcessorFunc(func(ctx *workflow.Context) error {
			if err := hook(id, ctx.Wave); err != nil {
				return err
			}
			tab, err := ctx.Table(out)
			if err != nil {
				return err
			}
			return tab.PutFloat("k", "v", float64(ctx.Wave))
		}),
	}
	if in != "" {
		s.Inputs = []workflow.Container{{Table: in}}
	}
	return s
}

// twoChains is two independent source → gated chains, a → b and c → d, plus a
// zero-tolerance step e behind d, in the order [a b c d e]. Every processor
// calls hook first.
func twoChains(hook func(id workflow.StepID, wave int) error) BuildFunc {
	return func() (*workflow.Workflow, *kvstore.Store, error) {
		wf := workflow.New("chains")
		for _, err := range []error{
			wf.AddStep(hookedStep("a", "", "ta", workflow.QoD{}, hook)),
			wf.AddStep(hookedStep("b", "ta", "tb", chainQoD, hook)),
			wf.AddStep(hookedStep("c", "", "tc", workflow.QoD{}, hook)),
			wf.AddStep(hookedStep("d", "tc", "td", chainQoD, hook)),
			wf.AddStep(hookedStep("e", "td", "te", workflow.QoD{}, hook)),
			wf.Finalize(),
		} {
			if err != nil {
				return nil, nil, err
			}
		}
		return wf, kvstore.New(), nil
	}
}

// TestDoomedWaveHoldsBackUnreachedSteps fails source a, which stops the walk:
// b, d and e, which come after a in the order, must all stay put, and the
// error blames a. (c is independent of a; the walk does not reach it either.)
func TestDoomedWaveHoldsBackUnreachedSteps(t *testing.T) {
	const failWave = 2
	ran := make(map[workflow.StepID]int)
	in := newWorkloadInstance(t, twoChains(func(id workflow.StepID, wave int) error {
		if wave != failWave {
			return nil
		}
		ran[id]++
		if id == "a" {
			return errBoom
		}
		return nil
	}), false)
	for w := 0; w < failWave; w++ {
		if _, err := in.RunWave(Sync{}); err != nil {
			t.Fatal(err)
		}
	}
	before := in.PersistState()
	_, err := in.RunWave(Sync{})
	if !errors.Is(err, errBoom) || !strings.Contains(err.Error(), `step "a"`) {
		t.Fatalf("err = %v, want errBoom blamed on a", err)
	}
	if ran["b"] != 0 || ran["d"] != 0 || ran["e"] != 0 {
		t.Errorf("steps past the failure ran: %v", ran)
	}
	if after := in.PersistState(); !reflect.DeepEqual(after, before) {
		t.Error("a failed wave left instance state behind")
	}
}

// TestParallelWaveError checks the wave loop surfaces a failing step's error
// and, of several sibling steps that would fail, blames the first in
// topological order.
func TestParallelWaveError(t *testing.T) {
	boom := errors.New("boom")
	build := func() (*workflow.Workflow, *kvstore.Store, error) {
		store := kvstore.New()
		wf := workflow.New("err")
		if err := wf.AddStep(&workflow.Step{
			ID:      "src",
			Source:  true,
			Outputs: []workflow.Container{{Table: "raw"}},
			Proc: workflow.ProcessorFunc(func(ctx *workflow.Context) error {
				tab, err := ctx.Table("raw")
				if err != nil {
					return err
				}
				return tab.PutFloat("k", "v", float64(ctx.Wave))
			}),
		}); err != nil {
			return nil, nil, err
		}
		for i := 0; i < 3; i++ {
			i := i
			if err := wf.AddStep(&workflow.Step{
				ID:      workflow.StepID("fail" + strconv.Itoa(i)),
				Inputs:  []workflow.Container{{Table: "raw"}},
				Outputs: []workflow.Container{{Table: "out" + strconv.Itoa(i)}},
				Proc: workflow.ProcessorFunc(func(ctx *workflow.Context) error {
					return fmt.Errorf("fail%d: %w", i, boom)
				}),
			}); err != nil {
				return nil, nil, err
			}
		}
		if err := wf.Finalize(); err != nil {
			return nil, nil, err
		}
		return wf, store, nil
	}
	inst := newWorkloadInstance(t, build, false)
	_, err := inst.RunWave(Sync{})
	if err == nil {
		t.Fatal("expected an error")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("error chain broken: %v", err)
	}
	// fail0 is first in topological order among the failing siblings.
	if want := `step "fail0"`; !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %q, want it to blame %q", err.Error(), want)
	}
}

// TestSnapshotCacheReuse checks the cross-wave snapshot cache: a container
// nobody wrote keeps its state — same backing array, no allocation, no scan —
// from wave to wave, any write to its table, or a table dropped and
// recreated under the same name, is seen by the next snapshot, and a rescan
// refills the entry's buffer in place.
func TestSnapshotCacheReuse(t *testing.T) {
	inst := newTestInstance(t, 0.1, false)
	reg := obs.NewRegistry()
	inst.Instrument(obs.New(reg))
	never := DeciderFunc{PolicyName: "never", Fn: func(_, _ int, _ []float64) bool { return false }}
	if _, err := inst.RunWave(Sync{}); err != nil {
		t.Fatal(err)
	}
	raw, avg := workflow.Container{Table: "raw"}, workflow.Container{Table: "avg"}
	rawBefore, avgBefore := cachedState(inst, raw), cachedState(inst, avg)
	// A rescan refills the cache's buffer: keep raw's values apart.
	rawBefore.Vals = slices.Clone(rawBefore.Vals)
	if rawBefore.Len() != 8 || avgBefore.Len() != 1 {
		t.Fatalf("primed snapshots: raw %v, avg %v", rawBefore, avgBefore)
	}

	// mid and leaf skip: src rewrites raw, nobody touches avg.
	if _, err := inst.RunWave(never); err != nil {
		t.Fatal(err)
	}
	scanned := reg.Snapshot().Counters[`smartflux_engine_snapshots_total{result="scanned"}`]
	if allocs := testing.AllocsPerRun(10, func() { cachedState(inst, avg) }); allocs != 0 {
		t.Errorf("snapshot of an unwritten container allocates %v objects, want 0", allocs)
	}
	if got := cachedState(inst, avg); &got.Vals[0] != &avgBefore.Vals[0] {
		t.Error("an unwritten container must keep the previous wave's state")
	}
	if got := cachedState(inst, raw); reflect.DeepEqual(got, rawBefore) || !reflect.DeepEqual(got, scanContainer(inst.store, raw)) {
		t.Errorf("a rewritten container must be rescanned: %v", got)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[`smartflux_engine_snapshots_total{result="scanned"}`]; got != scanned {
		t.Errorf("reads scanned %d more times", got-scanned)
	}
	if got := snap.Counters[`smartflux_engine_snapshots_total{result="reused"}`]; got == 0 {
		t.Error("reused snapshots are not counted")
	}

	table, err := inst.store.Table("avg")
	if err != nil {
		t.Fatal(err)
	}
	if err := table.PutFloat("all", "avg", -1); err != nil {
		t.Fatal(err)
	}
	if got := cachedState(inst, avg); got.Len() != 1 || got.Vals[0] != -1 {
		t.Errorf("snapshot after a write = %v, want the new value", got)
	} else if &got.Vals[0] != &avgBefore.Vals[0] {
		t.Error("a rescan of an unchanged key set must refill the cached buffer, not allocate another")
	}

	// A recreated table restarts at version 0: one Put brings it to the
	// version the cached entry may hold, so the *Table must be compared too.
	for _, v := range []float64{-2, -3} {
		if err := inst.store.DropTable("avg"); err != nil {
			t.Fatal(err)
		}
		table, err := inst.store.CreateTable("avg", kvstore.TableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := table.PutFloat("all", "avg", v); err != nil {
			t.Fatal(err)
		}
		if got := cachedState(inst, avg); got.Len() != 1 || got.Vals[0] != v {
			t.Errorf("snapshot after drop+recreate = %v, want %v", got, v)
		}
	}
	if err := inst.store.DropTable("avg"); err != nil {
		t.Fatal(err)
	}
	if got := cachedState(inst, avg); got.Len() != 0 {
		t.Errorf("snapshot of a missing table = %v", got)
	}
}

// cachedState returns c's state through the instance's snapshot cache: the
// cache's own Columns, whose Vals the next rescan of c overwrites.
func cachedState(inst *Instance, c workflow.Container) (state metric.Columns) {
	inst.readSnapshot(c, func(s metric.Columns) { state = s })
	return state
}

// scanContainer reads c's current state from the store, past the instance's
// snapshot cache.
func scanContainer(store *kvstore.Store, c workflow.Container) metric.Columns {
	t, err := store.Table(c.Table)
	if err != nil {
		return metric.Columns{}
	}
	state, _ := t.ScanColumns(kvstore.ScanOptions{ColumnPrefix: c.ColumnPrefix}, nil)
	return state
}

// scheduleDigests are the SHA-256 digests of scheduleDigest recorded on the
// commit before the two wave loops were folded into one scheduler (b1be571):
// an oracle for the scheduler that is not the scheduler; the random rows were
// re-recorded when Random became a hash of (seed, wave, step). Regenerate
// only for a change that is meant to alter results, and say so.
var scheduleDigests = map[string]string{
	"sync/clean":    "c13dd51115de780b0bebecfc9b656342ef3a0d580186fa5d97314d1bce198aeb",
	"sync/faulty":   "3a380bf92129880c20b6dbc6fdc8fa50b32f8f2d20a931013dc36f5890bafe4e",
	"seq3/clean":    "545ee4a8967d1a1c1b1e39e6003ada40c2d006cdb8611c2a239b9735210d1f71",
	"seq3/faulty":   "a7dd084c57bcac0de10f19489c3b87983c0e7c6595021bb3a894a9a12f90a187",
	"random/clean":  "579cdd2144674e60a11677cd92b8d1954a416f2fbfb9fb187059ad67b76cf776",
	"random/faulty": "cc95ab656d409bd226315e76bf9fd195ba21cf038d240f32849032bccce3c4c6",
}

// seededStepFaults returns a hook factory for hookedWorkload that, per wave
// and from the seed alone, lets the step run, fails its first attempt (a
// retry recovers) or fails every attempt (the step degrades).
func seededStepFaults(seed int64, waves int) func() func(int) error {
	rng := rand.New(rand.NewSource(seed))
	mode := make([]int, waves)
	for w := range mode {
		switch p := rng.Float64(); {
		case p < 0.15:
			mode[w] = 2
		case p < 0.35:
			mode[w] = 1
		}
	}
	return func() func(int) error {
		attempts := make([]int, waves)
		return func(w int) error {
			attempts[w]++
			if mode[w] == 2 || mode[w] == 1 && attempts[w] == 1 {
				return errBoom
			}
			return nil
		}
	}
}

// scheduleDigest runs the engine test workload for 60 waves and hashes
// everything a schedule determines: the per-wave result vectors, the emitted
// decision events (wall-clock latency zeroed) and every retained version of
// every cell with its logical timestamp.
func scheduleDigest(t *testing.T, d Decider, faulty bool) string {
	t.Helper()
	const waves = 60
	build, cfg := testWorkload(0.05), InstanceConfig{}
	if faulty {
		build = hookedWorkload(0.05, "mid", seededStepFaults(23, waves))
		cfg.DegradeGated, cfg.StepRetries = true, 1
	}
	in := buildInstance(t, build, cfg)
	ring := obs.NewRingSink(4 * waves)
	in.Instrument(obs.New(obs.NewRegistry(), ring))
	h := sha256.New()
	for w := 0; w < waves; w++ {
		res, err := in.RunWave(d)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "w%d %v %v %v", w, res.Executed, res.Degraded, res.Labels)
		for i := range res.Impacts {
			fmt.Fprintf(h, " %x %x", math.Float64bits(res.Impacts[i]), math.Float64bits(res.SimErrors[i]))
		}
	}
	for _, ev := range ring.Tail(0) {
		ev.DecisionNanos = 0
		fmt.Fprintf(h, "\n%+v", ev)
	}
	for _, name := range []string{"raw", "avg", "scaled"} {
		tbl, err := in.store.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range tbl.Scan(kvstore.ScanOptions{}) {
			for _, v := range tbl.GetVersions(c.Row, c.Column, 0) {
				fmt.Fprintf(h, "\n%s %s/%s @%d = %x", name, c.Row, c.Column, v.Timestamp, v.Value)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestScheduleDigests pins the scheduler to the committed digests.
func TestScheduleDigests(t *testing.T) {
	policies := []func() Decider{
		func() Decider { return Sync{} },
		func() Decider { return NewSeq(3) },
		func() Decider { return NewRandom(0.5, 17) },
	}
	for _, policy := range policies {
		for _, faulty := range []bool{false, true} {
			d := policy()
			name := d.Name() + "/clean"
			if faulty {
				name = d.Name() + "/faulty"
			}
			if got := scheduleDigest(t, d, faulty); got != scheduleDigests[name] {
				t.Errorf("%s: digest %s, recorded %q", name, got, scheduleDigests[name])
			}
		}
	}
}
