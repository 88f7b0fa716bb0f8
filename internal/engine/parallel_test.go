package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"smartflux/internal/kvstore"
	"smartflux/internal/metric"
	"smartflux/internal/obs"
	"smartflux/internal/workflow"
)

// newWorkloadInstance builds one instance of a workload at a parallelism.
func newWorkloadInstance(t *testing.T, build BuildFunc, training bool, par int) *Instance {
	t.Helper()
	wf, store, err := build()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(wf, store, InstanceConfig{TrainingMode: training, Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestParallelWaveBitIdentical drives a Parallelism-1 and a Parallelism-4
// instance of the same workload through the same policy and requires every
// WaveResult — impacts, labels, simulated errors, execution flags and
// counters — plus the final store contents to match exactly: the two sides
// of dispatch agree, and Parallelism only changes wall-clock. That both are
// right is TestScheduleDigests' job.
func TestParallelWaveBitIdentical(t *testing.T) {
	policies := map[string]func() Decider{
		"sync":   func() Decider { return Sync{} },
		"seq3":   func() Decider { return NewSeq(3) },
		"random": func() Decider { return NewRandom(0.5, 17) },
		"never": func() Decider {
			return DeciderFunc{PolicyName: "never", Fn: func(_, _ int, _ []float64) bool { return false }}
		},
	}
	for name, policy := range policies {
		for _, training := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/training=%v", name, training), func(t *testing.T) {
				seq := newWorkloadInstance(t, testWorkload(0.05), training, 1)
				par := newWorkloadInstance(t, testWorkload(0.05), training, 4)
				if seq.Parallelism() != 1 || par.Parallelism() != 4 {
					t.Fatalf("parallelism plumbing: %d/%d", seq.Parallelism(), par.Parallelism())
				}
				ds, dp := policy(), policy()
				for w := 0; w < 40; w++ {
					rs, err := seq.RunWave(ds)
					if err != nil {
						t.Fatal(err)
					}
					rp, err := par.RunWave(dp)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(rs, rp) {
						t.Fatalf("wave %d diverged:\nseq: %+v\npar: %+v", w, rs, rp)
					}
				}
				for _, id := range seq.GatedSteps() {
					if seq.ExecCount(id) != par.ExecCount(id) {
						t.Errorf("%s exec count %d vs %d", id, seq.ExecCount(id), par.ExecCount(id))
					}
					if !reflect.DeepEqual(seq.OutputState(id), par.OutputState(id)) {
						t.Errorf("%s output state diverged", id)
					}
				}
			})
		}
	}
}

// TestParallelTracedEventsMatch compares the decision-trace streams of a
// sequential and a parallel run: identical apart from wall-clock timings.
func TestParallelTracedEventsMatch(t *testing.T) {
	run := func(par int) []obs.DecisionEvent {
		inst := newWorkloadInstance(t, testWorkload(0.05), false, par)
		ring := obs.NewRingSink(1024)
		inst.Instrument(obs.New(obs.NewRegistry(), ring))
		for w := 0; w < 20; w++ {
			if _, err := inst.RunWave(NewSeq(2)); err != nil {
				t.Fatal(err)
			}
		}
		events := ring.Tail(0)
		for i := range events {
			events[i].DecisionNanos = 0
		}
		return events
	}
	seq, par := run(1), run(4)
	if len(seq) == 0 {
		t.Fatal("no events traced")
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("trace streams diverged: %d vs %d events", len(seq), len(par))
	}
}

// wideWorkload is a race-stress workflow: one source fans out to width
// independent gated averages over disjoint column prefixes of one shared
// table, and two join steps read overlapping subsets of those outputs, so a
// wave holds many concurrently runnable steps plus cross-level edges.
func wideWorkload(width int, maxErr float64) BuildFunc {
	return func() (*workflow.Workflow, *kvstore.Store, error) {
		store := kvstore.New()
		wf := workflow.New("wide")
		qod := workflow.QoD{
			MaxError:   maxErr,
			ImpactFunc: metric.FuncAbsoluteImpact,
			ErrorFunc:  metric.FuncRelativeError,
			Mode:       metric.ModeAccumulate,
		}
		src := &workflow.Step{
			ID:      "src",
			Source:  true,
			Outputs: []workflow.Container{{Table: "raw"}},
			Proc: workflow.ProcessorFunc(func(ctx *workflow.Context) error {
				tab, err := ctx.Table("raw")
				if err != nil {
					return err
				}
				batch := kvstore.NewBatch()
				for i := 0; i < width; i++ {
					key := "k" + strconv.Itoa(i)
					batch.PutFloat(key, "v", float64(ctx.Wave*7+i*13%29))
				}
				return tab.Apply(batch)
			}),
		}
		if err := wf.AddStep(src); err != nil {
			return nil, nil, err
		}
		for i := 0; i < width; i++ {
			key := "k" + strconv.Itoa(i)
			out := "m" + strconv.Itoa(i)
			step := &workflow.Step{
				ID:      workflow.StepID("mid" + strconv.Itoa(i)),
				Inputs:  []workflow.Container{{Table: "raw", ColumnPrefix: key}},
				Outputs: []workflow.Container{{Table: out}},
				QoD:     qod,
				Proc: workflow.ProcessorFunc(func(ctx *workflow.Context) error {
					raw, err := ctx.Table("raw")
					if err != nil {
						return err
					}
					dst, err := ctx.Table(out)
					if err != nil {
						return err
					}
					v, ok := raw.GetFloat(key, "v")
					if !ok {
						return nil
					}
					return dst.PutFloat("all", "x", 2*v+1)
				}),
			}
			if err := wf.AddStep(step); err != nil {
				return nil, nil, err
			}
		}
		for j := 0; j < 2; j++ {
			lo, hi := j*width/2, (j+1)*width/2
			var ins []workflow.Container
			for i := lo; i < hi; i++ {
				ins = append(ins, workflow.Container{Table: "m" + strconv.Itoa(i)})
			}
			out := "join" + strconv.Itoa(j)
			step := &workflow.Step{
				ID:      workflow.StepID(out),
				Inputs:  ins,
				Outputs: []workflow.Container{{Table: out}},
				QoD:     qod,
				Proc: workflow.ProcessorFunc(func(ctx *workflow.Context) error {
					var sum float64
					for i := lo; i < hi; i++ {
						tab, err := ctx.Table("m" + strconv.Itoa(i))
						if err != nil {
							return err
						}
						if v, ok := tab.GetFloat("all", "x"); ok {
							sum += v
						}
					}
					dst, err := ctx.Table(out)
					if err != nil {
						return err
					}
					return dst.PutFloat("all", "sum", sum)
				}),
			}
			if err := wf.AddStep(step); err != nil {
				return nil, nil, err
			}
		}
		if err := wf.Finalize(); err != nil {
			return nil, nil, err
		}
		return wf, store, nil
	}
}

// TestParallelWideWaveStress exercises the scheduler's pool on a wide
// workflow with shared tables under the race detector, and checks it still
// matches the Parallelism-1 run exactly. Parallelism is set well above the
// runnable width so the pool, the per-step done channels and the
// coordinator's waits all see real contention.
func TestParallelWideWaveStress(t *testing.T) {
	build := wideWorkload(12, 0.08)
	for _, policy := range []func() Decider{
		func() Decider { return Sync{} },
		func() Decider { return NewRandom(0.6, 5) },
	} {
		seq := newWorkloadInstance(t, build, false, 1)
		par := newWorkloadInstance(t, build, false, 8)
		ds, dp := policy(), policy()
		for w := 0; w < 15; w++ {
			rs, err := seq.RunWave(ds)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := par.RunWave(dp)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rs, rp) {
				t.Fatalf("policy %s wave %d diverged", ds.Name(), w)
			}
		}
	}
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

// TestFailedStepStopsItsConsumers pins the error rule at both sides of
// dispatch: when mid fails, leaf — which waits on it — does not run on mid's
// stale output, the error blames mid, the instance is back in its pre-wave
// state, and a harness that retries the wave ends up with the fault-free
// result.
func TestFailedStepStopsItsConsumers(t *testing.T) {
	const failWave = 3
	for _, par := range []int{1, 4} {
		var calls []map[int]int
		build := countingStep(hookedWorkload(0.05, "mid", failFirstAttemptAt(failWave)), "leaf", &calls)
		in := buildInstance(t, build, InstanceConfig{Parallelism: par})
		for w := 0; w < failWave; w++ {
			if _, err := in.RunWave(Sync{}); err != nil {
				t.Fatal(err)
			}
		}
		before := in.PersistState()
		_, err := in.RunWave(Sync{})
		if !errors.Is(err, errBoom) || !strings.Contains(err.Error(), `step "mid"`) {
			t.Fatalf("par %d: err = %v, want errBoom blamed on mid", par, err)
		}
		if n := calls[0][failWave]; n != 0 {
			t.Errorf("par %d: leaf ran %d times in the wave its predecessor failed", par, n)
		}
		if after := in.PersistState(); !reflect.DeepEqual(after, before) {
			t.Errorf("par %d: a failed wave left instance state behind:\n%+v\nwant\n%+v", par, after, before)
		}

		faulty, err := NewHarnessWithConfig(build, nil, HarnessConfig{Parallelism: par, WaveRetries: 1})
		if err != nil {
			t.Fatal(err)
		}
		clean, err := NewHarnessWithConfig(testWorkload(0.05), nil, HarnessConfig{Parallelism: par})
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
// zero-tolerance step e behind d. Its order is [a b c d e]: c, d and e sort
// after gated step b, which waits on source a. Every processor calls hook
// first.
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

// TestIndependentBranchesOverlap pins that above Parallelism 1 a step taking
// no decision starts at wave start whatever its place in the order: source c
// must not queue behind the coordinator's wait for a on b's behalf. The two
// sources here refuse to finish until they have met, so they can only
// succeed running at the same time.
func TestIndependentBranchesOverlap(t *testing.T) {
	meet := make(chan struct{})
	in := newWorkloadInstance(t, twoChains(func(id workflow.StepID, _ int) error {
		var send, recv chan struct{}
		switch id {
		case "a":
			send = meet
		case "c":
			recv = meet
		default:
			return nil
		}
		select {
		case send <- struct{}{}:
		case <-recv:
		case <-time.After(5 * time.Second):
			return errors.New("the other chain's source did not start while this one was running")
		}
		return nil
	}), false, 4)
	if want := []workflow.StepID{"a", "b", "c", "d", "e"}; !reflect.DeepEqual(in.order, want) {
		t.Fatalf("order = %v, want %v: the test needs a source placed after a gated step", in.order, want)
	}
	for w := 0; w < 5; w++ {
		res, err := in.RunWave(Sync{})
		if err != nil {
			t.Fatalf("wave %d: %v", w, err)
		}
		if res.TotalExecutions != 5 {
			t.Fatalf("wave %d: %d executions, want 5", w, res.TotalExecutions)
		}
	}
}

// TestDoomedWaveHoldsBackUnreachedSteps fails source a, which stops the walk
// at b: b, d — a gated step the coordinator never gets to — and e — started at
// wave start above Parallelism 1 and waiting on d — must all stay put, and the
// error blames a, at every parallelism. (c is independent of a and may run.)
func TestDoomedWaveHoldsBackUnreachedSteps(t *testing.T) {
	const failWave = 2
	for _, par := range []int{1, 4} {
		var mu sync.Mutex
		ran := make(map[workflow.StepID]int)
		in := newWorkloadInstance(t, twoChains(func(id workflow.StepID, wave int) error {
			if wave != failWave {
				return nil
			}
			mu.Lock()
			ran[id]++
			mu.Unlock()
			if id == "a" {
				return errBoom
			}
			return nil
		}), false, par)
		for w := 0; w < failWave; w++ {
			if _, err := in.RunWave(Sync{}); err != nil {
				t.Fatal(err)
			}
		}
		before := in.PersistState()
		_, err := in.RunWave(Sync{})
		if !errors.Is(err, errBoom) || !strings.Contains(err.Error(), `step "a"`) {
			t.Fatalf("par %d: err = %v, want errBoom blamed on a", par, err)
		}
		if ran["b"] != 0 || ran["d"] != 0 || ran["e"] != 0 {
			t.Errorf("par %d: steps past the failure ran: %v", par, ran)
		}
		if after := in.PersistState(); !reflect.DeepEqual(after, before) {
			t.Errorf("par %d: a failed wave left instance state behind", par)
		}
	}
}

// goroutineID returns the calling goroutine's ID, read off its stack trace
// header ("goroutine 7 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestGatedChainStaysOnCoordinator pins the first dispatch rule of
// parallel.go: in a source → g1 → g2 → g3 chain each gated step is waited on
// by the next or is the last, so above Parallelism 1 the coordinator runs it
// itself — on the goroutine that called RunWave — instead of handing it to a
// goroutine and parking until it is done.
func TestGatedChainStaysOnCoordinator(t *testing.T) {
	var mu sync.Mutex
	ran := make(map[workflow.StepID]string)
	hook := func(id workflow.StepID, _ int) error {
		mu.Lock()
		ran[id] = goroutineID()
		mu.Unlock()
		return nil
	}
	in := newWorkloadInstance(t, func() (*workflow.Workflow, *kvstore.Store, error) {
		wf := workflow.New("chain")
		for _, err := range []error{
			wf.AddStep(hookedStep("src", "", "t0", workflow.QoD{}, hook)),
			wf.AddStep(hookedStep("g1", "t0", "t1", chainQoD, hook)),
			wf.AddStep(hookedStep("g2", "t1", "t2", chainQoD, hook)),
			wf.AddStep(hookedStep("g3", "t2", "t3", chainQoD, hook)),
			wf.Finalize(),
		} {
			if err != nil {
				return nil, nil, err
			}
		}
		return wf, kvstore.New(), nil
	}, false, 4)
	caller := goroutineID()
	for w := 0; w < 5; w++ {
		res, err := in.RunWave(Sync{})
		if err != nil {
			t.Fatalf("wave %d: %v", w, err)
		}
		if res.GatedExecutions != 3 {
			t.Fatalf("wave %d: %d gated executions, want 3", w, res.GatedExecutions)
		}
		for _, id := range []workflow.StepID{"g1", "g2", "g3"} {
			if ran[id] != caller {
				t.Errorf("wave %d: %s ran on goroutine %s, want the caller's, %s", w, id, ran[id], caller)
			}
		}
	}
}

// TestParallelWaveError checks the scheduler surfaces a failing step's error
// and, with several failures in flight, reports the first in topological
// order — the step a Parallelism-1 run blames.
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
	inst := newWorkloadInstance(t, build, false, 4)
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
// from wave to wave, and any write to its table, or a table dropped and
// recreated under the same name, is seen by the next snapshot.
func TestSnapshotCacheReuse(t *testing.T) {
	inst := newTestInstance(t, 0.1, false)
	reg := obs.NewRegistry()
	inst.Instrument(obs.New(reg))
	never := DeciderFunc{PolicyName: "never", Fn: func(_, _ int, _ []float64) bool { return false }}
	if _, err := inst.RunWave(Sync{}); err != nil {
		t.Fatal(err)
	}
	raw, avg := workflow.Container{Table: "raw"}, workflow.Container{Table: "avg"}
	rawBefore, avgBefore := inst.snapshot(raw), inst.snapshot(avg)
	if rawBefore.Len() != 8 || avgBefore.Len() != 1 {
		t.Fatalf("primed snapshots: raw %v, avg %v", rawBefore, avgBefore)
	}

	// mid and leaf skip: src rewrites raw, nobody touches avg.
	if _, err := inst.RunWave(never); err != nil {
		t.Fatal(err)
	}
	scanned := reg.Snapshot().Counters[`smartflux_engine_snapshots_total{result="scanned"}`]
	if allocs := testing.AllocsPerRun(10, func() { inst.snapshot(avg) }); allocs != 0 {
		t.Errorf("snapshot of an unwritten container allocates %v objects, want 0", allocs)
	}
	if got := inst.snapshot(avg); &got.Vals[0] != &avgBefore.Vals[0] {
		t.Error("an unwritten container must keep the previous wave's state")
	}
	if got := inst.snapshot(raw); reflect.DeepEqual(got, rawBefore) || !reflect.DeepEqual(got, metric.ColumnsOf(raw.Snapshot(inst.store))) {
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
	if got := inst.snapshot(avg); got.Len() != 1 || got.Vals[0] != -1 {
		t.Errorf("snapshot after a write = %v, want the new value", got)
	}
	if avgBefore.Vals[0] == -1 {
		t.Error("a handed-out state changed under a later write")
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
		if got := inst.snapshot(avg); got.Len() != 1 || got.Vals[0] != v {
			t.Errorf("snapshot after drop+recreate = %v, want %v", got, v)
		}
	}
	if err := inst.store.DropTable("avg"); err != nil {
		t.Fatal(err)
	}
	if got := inst.snapshot(avg); got.Len() != 0 {
		t.Errorf("snapshot of a missing table = %v", got)
	}
}

// TestSnapshotCacheFreshUnderParallelism runs a wide workflow — many workers
// observing column slices of one shared table — at Parallelism 4 under a
// skipping policy and checks after every wave that each cached container
// state equals a direct scan, and that the scanned/reused counts match a
// Parallelism-1 run's (racing readers of one container share one scan).
func TestSnapshotCacheFreshUnderParallelism(t *testing.T) {
	build := wideWorkload(12, 0.08)
	counts := make(map[int]map[string]uint64)
	for _, par := range []int{1, 4} {
		inst := newWorkloadInstance(t, build, false, par)
		reg := obs.NewRegistry()
		inst.Instrument(obs.New(reg))
		d := NewRandom(0.4, 11)
		for w := 0; w < 25; w++ {
			if _, err := inst.RunWave(d); err != nil {
				t.Fatal(err)
			}
			for c := range inst.snaps {
				got, want := inst.snapshot(c), metric.ColumnsOf(c.Snapshot(inst.store))
				if !slices.Equal(got.Keys, want.Keys) || !slices.Equal(got.Vals, want.Vals) {
					t.Fatalf("par %d wave %d: cached %v = %v, store has %v", par, w, c, got, want)
				}
			}
		}
		counts[par] = reg.Snapshot().Counters
	}
	for _, result := range []string{"scanned", "reused"} {
		name := `smartflux_engine_snapshots_total{result="` + result + `"}`
		if counts[1][name] == 0 || counts[1][name] != counts[4][name] {
			t.Errorf("%s: sequential %d, parallel %d", name, counts[1][name], counts[4][name])
		}
	}
}

// TestHarnessParallelMatchesSequential runs the full harness (live + shadow
// reference instance, measurement, reports) at both parallelism settings.
func TestHarnessParallelMatchesSequential(t *testing.T) {
	run := func(par int) *Result {
		h, err := NewHarnessWithConfig(testWorkload(0.05), nil, HarnessConfig{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.Run(30, NewSeq(3))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run(1), run(4)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("harness results diverged between Parallelism 1 and 4")
	}
}

// scheduleDigests are the SHA-256 digests of scheduleDigest recorded on the
// commit before the two wave loops were folded into one scheduler (b1be571):
// an oracle for the scheduler that is not the scheduler. Each holds for
// Parallelism 1, 2 and 4 alike. Regenerate only for a change that is meant to
// alter results, and say so.
var scheduleDigests = map[string]string{
	"sync/clean":    "c13dd51115de780b0bebecfc9b656342ef3a0d580186fa5d97314d1bce198aeb",
	"sync/faulty":   "3a380bf92129880c20b6dbc6fdc8fa50b32f8f2d20a931013dc36f5890bafe4e",
	"seq3/clean":    "545ee4a8967d1a1c1b1e39e6003ada40c2d006cdb8611c2a239b9735210d1f71",
	"seq3/faulty":   "a7dd084c57bcac0de10f19489c3b87983c0e7c6595021bb3a894a9a12f90a187",
	"random/clean":  "1b38ed762a2dcd27c5fb9aac8a68f17f49b48d1b34ec94829d9a973a2b828fea",
	"random/faulty": "55b26f7313a900e7fe822830cb87321d6a0596c7514a9d7a66982efad5359aa3",
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
func scheduleDigest(t *testing.T, d Decider, par int, faulty bool) string {
	t.Helper()
	const waves = 60
	build, cfg := testWorkload(0.05), InstanceConfig{Parallelism: par}
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
			for _, par := range []int{1, 2, 4} {
				d := policy()
				name := d.Name() + "/clean"
				if faulty {
					name = d.Name() + "/faulty"
				}
				if got := scheduleDigest(t, d, par, faulty); got != scheduleDigests[name] {
					t.Errorf("%s at Parallelism %d: digest %s, recorded %q", name, par, got, scheduleDigests[name])
				}
			}
		}
	}
}
