package engine

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smartflux/internal/kvstore"
	"smartflux/internal/obs"
	"smartflux/internal/workflow"
)

var errBoom = errors.New("boom")

// hookedWorkload wraps testWorkload so each built copy's named step runs
// mkHook()'s fresh closure before its real processor — the injection point
// for deterministic step failures.
func hookedWorkload(maxErr float64, stepID workflow.StepID, mkHook func() func(wave int) error) BuildFunc {
	base := testWorkload(maxErr)
	return func() (*workflow.Workflow, *kvstore.Store, error) {
		wf, store, err := base()
		if err != nil {
			return nil, nil, err
		}
		step, err := wf.Step(stepID)
		if err != nil {
			return nil, nil, err
		}
		inner := step.Proc
		hook := mkHook()
		step.Proc = workflow.ProcessorFunc(func(ctx *workflow.Context) error {
			if err := hook(ctx.Wave); err != nil {
				return err
			}
			return inner.Process(ctx)
		})
		return wf, store, nil
	}
}

// failFirstAttemptAt returns a hook factory failing exactly the first
// processor attempt at the given wave.
func failFirstAttemptAt(wave int) func() func(int) error {
	return func() func(int) error {
		failed := false
		return func(w int) error {
			if w == wave && !failed {
				failed = true
				return errBoom
			}
			return nil
		}
	}
}

// buildInstance constructs one instance from build.
func buildInstance(t *testing.T, build BuildFunc, cfg InstanceConfig) *Instance {
	t.Helper()
	wf, store, err := build()
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInstance(wf, store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestStepRetryRecoversTransientFailure gives a step failing its first two
// attempts a budget of two retries: the wave must succeed and match a
// fault-free run exactly.
func TestStepRetryRecoversTransientFailure(t *testing.T) {
	mkFlaky := func() func(int) error {
		fails := 0
		return func(w int) error {
			if w == 2 && fails < 2 {
				fails++
				return errBoom
			}
			return nil
		}
	}
	reg := obs.NewRegistry()
	faulty := buildInstance(t, hookedWorkload(0.05, "leaf", mkFlaky),
		InstanceConfig{Parallelism: 1, StepRetries: 2})
	faulty.Instrument(obs.New(reg))
	clean := buildInstance(t, testWorkload(0.05), InstanceConfig{Parallelism: 1})

	for w := 0; w < 5; w++ {
		fres, err := faulty.RunWave(Sync{})
		if err != nil {
			t.Fatalf("faulty wave %d: %v", w, err)
		}
		cres, err := clean.RunWave(Sync{})
		if err != nil {
			t.Fatalf("clean wave %d: %v", w, err)
		}
		for i := range fres.Impacts {
			if fres.Impacts[i] != cres.Impacts[i] || fres.Executed[i] != cres.Executed[i] || fres.SimErrors[i] != cres.SimErrors[i] {
				t.Fatalf("wave %d step %d diverged from fault-free run: %+v vs %+v", w, i, fres, cres)
			}
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["smartflux_engine_step_retries_total"]; got != 2 {
		t.Errorf("step retries = %d, want 2", got)
	}
}

// TestStepTimeout bounds a hung processor with StepTimeout: the wave must
// fail promptly with an ErrStepTimeout-wrapped error.
func TestStepTimeout(t *testing.T) {
	mkHung := func() func(int) error {
		return func(w int) error {
			if w == 1 {
				time.Sleep(2 * time.Second)
			}
			return nil
		}
	}
	reg := obs.NewRegistry()
	in := buildInstance(t, hookedWorkload(0.05, "mid", mkHung),
		InstanceConfig{Parallelism: 1, StepTimeout: 30 * time.Millisecond})
	in.Instrument(obs.New(reg))

	if _, err := in.RunWave(Sync{}); err != nil {
		t.Fatalf("wave 0: %v", err)
	}
	start := time.Now()
	_, err := in.RunWave(Sync{})
	if !errors.Is(err, ErrStepTimeout) {
		t.Fatalf("wave 1 err = %v, want ErrStepTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("timeout took %v; deadline not applied", elapsed)
	}
	if got := reg.Snapshot().Counters["smartflux_engine_step_timeouts_total"]; got != 1 {
		t.Errorf("timeouts = %d, want 1", got)
	}
}

// TestTimedOutAttemptSharesNoBatchWithItsRetry times out the first attempt of
// a source that builds its write in a pooled batch. The abandoned attempt
// keeps filling and applies its batch while the retry fills its own: under
// -race the two share no memory, and once the straggler is done the table
// holds the retry's bytes.
func TestTimedOutAttemptSharesNoBatchWithItsRetry(t *testing.T) {
	const cells = 64
	var attempts atomic.Int32
	retrying, stragglerApplied := make(chan struct{}), make(chan struct{})
	fill := func(b *kvstore.Batch, attempt float64, from, to int) {
		for i := from; i < to; i++ {
			b.PutFloat("r"+strconv.Itoa(i), "v", 1000*attempt+float64(i))
		}
	}
	in := buildInstance(t, testWorkload(0.05), InstanceConfig{Parallelism: 1, StepTimeout: 50 * time.Millisecond, StepRetries: 1})
	src, err := in.wf.Step("src")
	if err != nil {
		t.Fatal(err)
	}
	src.Proc = workflow.ProcessorFunc(func(ctx *workflow.Context) error {
		out, err := ctx.Table("raw")
		if err != nil {
			return err
		}
		b := kvstore.GetBatch().Grow(cells)
		defer b.Release()
		if attempts.Add(1) == 1 { // outlives its deadline, then writes beside the retry
			fill(b, 1, 0, cells/2)
			<-retrying
			fill(b, 1, cells/2, cells)
			err := out.Apply(b)
			close(stragglerApplied)
			return err
		}
		close(retrying)
		fill(b, 2, 0, cells)
		<-stragglerApplied
		return out.Apply(b)
	})
	if _, err := in.RunWave(Sync{}); err != nil {
		t.Fatal(err)
	}
	if n := attempts.Load(); n != 2 {
		t.Fatalf("%d attempts, want a timed-out one and its retry", n)
	}
	raw, err := in.store.Table("raw")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cells; i++ {
		if v, _ := raw.GetFloat("r"+strconv.Itoa(i), "v"); v != 2000+float64(i) {
			t.Fatalf("cell %d holds %v, want the retry's %v", i, v, 2000+float64(i))
		}
	}
}

// TestDegradeGatedForcedSkip breaks a gated step permanently under
// DegradeGated: waves keep succeeding, the step reports Degraded (never
// Executed), its outputs stay at their last good contents, and the decision
// trace carries degraded=true.
func TestDegradeGatedForcedSkip(t *testing.T) {
	mkBroken := func() func(int) error {
		return func(w int) error {
			if w >= 2 {
				return errBoom
			}
			return nil
		}
	}
	reg := obs.NewRegistry()
	sink := obs.NewRingSink(64)
	o := obs.New(reg, sink)
	in := buildInstance(t, hookedWorkload(0.05, "leaf", mkBroken),
		InstanceConfig{Parallelism: 1, DegradeGated: true})
	in.Instrument(o)

	idx := in.GatedIndex("leaf")
	var lastGood float64
	for w := 0; w < 5; w++ {
		res, err := in.RunWave(Sync{})
		if err != nil {
			t.Fatalf("wave %d: %v", w, err)
		}
		state := in.OutputState("leaf")
		if state.Len() != 1 || state.Keys[0] != "scaled:all/scaled" {
			t.Fatalf("wave %d: OutputState = %v", w, state)
		}
		switch {
		case w < 2:
			if res.Degraded[idx] || !res.Executed[idx] {
				t.Fatalf("wave %d: degraded=%v executed=%v before the fault", w, res.Degraded[idx], res.Executed[idx])
			}
			lastGood = state.Vals[0]
		default:
			if !res.Degraded[idx] || res.Executed[idx] {
				t.Fatalf("wave %d: degraded=%v executed=%v, want forced skip", w, res.Degraded[idx], res.Executed[idx])
			}
			if got := state.Vals[0]; got != lastGood {
				t.Fatalf("wave %d: degraded step output moved %v -> %v; rollback failed", w, lastGood, got)
			}
		}
	}
	if got := reg.Snapshot().Counters["smartflux_engine_steps_degraded_total"]; got != 3 {
		t.Errorf("degraded counter = %d, want 3", got)
	}
	var traced int
	for _, ev := range sink.Tail(64) {
		if ev.Step == "leaf" && ev.Degraded {
			traced++
			if ev.Executed {
				t.Error("degraded event marked executed")
			}
			if !ev.Verdict {
				t.Error("degraded event lost its execute verdict")
			}
		}
	}
	if traced != 3 {
		t.Errorf("degraded trace events = %d, want 3", traced)
	}
}

// TestDegradeMatchesSkipEpsilonAccounting is the ε-accounting contract: a
// harness whose report step degrades on given waves must charge exactly the
// Predicted error of a run whose decider *chooses* to skip those waves.
func TestDegradeMatchesSkipEpsilonAccounting(t *testing.T) {
	const failFrom = 4
	builds := 0
	mkLiveOnly := func() func(int) error {
		builds++
		if builds == 1 { // NewHarness builds the live copy first
			// Fail only the first processor call per wave: that is the real
			// execution attempt. The harness's HypotheticalOutput measurement
			// re-runs the processor afterwards and must keep working.
			counts := map[int]int{}
			return func(w int) error {
				if w >= failFrom {
					counts[w]++
					if counts[w] == 1 {
						return errBoom
					}
				}
				return nil
			}
		}
		return func(int) error { return nil }
	}
	degraded, err := NewHarnessWithConfig(hookedWorkload(0.05, "leaf", mkLiveOnly), nil,
		HarnessConfig{Parallelism: 1, DegradeGated: true})
	if err != nil {
		t.Fatal(err)
	}
	skipper, err := NewHarnessWithConfig(testWorkload(0.05), nil, HarnessConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	leafIdx := skipper.Live().GatedIndex("leaf")

	const waves = 8
	degRes, err := degraded.Run(waves, Sync{})
	if err != nil {
		t.Fatal(err)
	}
	skipRes, err := skipper.Run(waves, skipStepFrom{idx: leafIdx, wave: failFrom})
	if err != nil {
		t.Fatal(err)
	}

	dr := degRes.Reports["leaf"]
	sr := skipRes.Reports["leaf"]
	for w := 0; w < waves; w++ {
		if want := w >= failFrom; dr.Degraded[w] != want {
			t.Fatalf("wave %d: degraded = %v, want %v", w, dr.Degraded[w], want)
		}
		if dr.Predicted[w] != sr.Predicted[w] {
			t.Fatalf("wave %d: degraded Predicted %v != skip Predicted %v; ε accounting diverged",
				w, dr.Predicted[w], sr.Predicted[w])
		}
		if dr.Measured[w] != sr.Measured[w] {
			t.Fatalf("wave %d: degraded Measured %v != skip Measured %v", w, dr.Measured[w], sr.Measured[w])
		}
	}
	if dr.Predicted[waves-1] == 0 {
		t.Fatal("degraded waves accumulated no predicted error; nothing was charged")
	}
}

// skipStepFrom executes everything except one gated step from a given wave.
type skipStepFrom struct {
	idx  int
	wave int
}

func (s skipStepFrom) Decide(wave, idx int, _ []float64) bool {
	return !(idx == s.idx && wave >= s.wave)
}

func (s skipStepFrom) Name() string { return "skip-step-from" }

// TestWaveCheckpointRestore fails a wave mid-flight (after the source
// already executed) and re-runs it: the failed wave must leave the persisted
// form exactly as it was, and the retried wave and all later waves must be
// bit-identical to a never-failed run.
func TestWaveCheckpointRestore(t *testing.T) {
	for _, par := range []int{1, 4} {
		faulty := buildInstance(t, hookedWorkload(0.05, "leaf", failFirstAttemptAt(3)),
			InstanceConfig{Parallelism: par})
		clean := buildInstance(t, testWorkload(0.05), InstanceConfig{Parallelism: par})

		for w := 0; w < 6; w++ {
			pre := faulty.PersistState()
			fres, err := faulty.RunWave(Sync{})
			if w == 3 && err != nil {
				if !errors.Is(err, errBoom) {
					t.Fatalf("wave 3 failed with %v, want errBoom", err)
				}
				if faulty.Wave() != 3 {
					t.Fatalf("wave counter advanced to %d through a failed wave", faulty.Wave())
				}
				if !reflect.DeepEqual(faulty.PersistState(), pre) {
					t.Fatalf("parallelism %d: persisted state changed through a failed wave", par)
				}
				// The instance is back at its pre-wave state: retry.
				fres, err = faulty.RunWave(Sync{})
			}
			if err != nil {
				t.Fatalf("faulty wave %d: %v", w, err)
			}
			cres, err := clean.RunWave(Sync{})
			if err != nil {
				t.Fatalf("clean wave %d: %v", w, err)
			}
			for i := range fres.Impacts {
				if fres.Impacts[i] != cres.Impacts[i] || fres.Executed[i] != cres.Executed[i] ||
					fres.SimErrors[i] != cres.SimErrors[i] || fres.Labels[i] != cres.Labels[i] {
					t.Fatalf("wave %d step %d diverged after recovery: %+v vs %+v", w, i, fres, cres)
				}
			}
		}
	}
}

// TestMeasureFailureCommitsNothing fails the hypothetical run of the second
// report step: the first step's figures were already computed, yet no series
// and no accumulator may move.
func TestMeasureFailureCommitsNothing(t *testing.T) {
	// In the live copy "leaf" runs twice per wave under Sync: the execution,
	// then the measure pass's hypothetical run — fail that one at wave 3.
	failMeasureAt3 := func() func(int) error {
		calls := 0
		return func(w int) error {
			if w != 3 {
				return nil
			}
			if calls++; calls == 2 {
				return errBoom
			}
			return nil
		}
	}
	h, err := NewHarnessWithConfig(hookedWorkload(0.05, "leaf", failMeasureAt3),
		[]workflow.StepID{"mid", "leaf"}, HarnessConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Run(3, Sync{})
	if err != nil {
		t.Fatal(err)
	}
	reports := res.Slice(0, res.Waves).Reports
	measures := slices.Clone(h.measures)

	if err := h.ResumeRun(res, 1, Sync{}); !errors.Is(err, errBoom) || !strings.Contains(err.Error(), "measure wave 3") {
		t.Fatalf("wave 3 = %v, want errBoom out of the measure pass", err)
	}
	if !reflect.DeepEqual(res.Reports, reports) {
		t.Fatal("a failed measure pass moved a StepReport series")
	}
	if !reflect.DeepEqual(h.measures, measures) {
		t.Fatal("a failed measure pass moved an accumulator")
	}
	if len(measures) != 2 || len(reports["mid"].Measured) != 3 {
		t.Fatalf("measure state: %d accumulators, %d mid samples; want 2 and 3", len(measures), len(reports["mid"].Measured))
	}
}

// TestHarnessWaveRetries lets the harness itself re-run failed waves: with
// WaveRetries budget both instances ride out first-attempt failures and the
// result matches a fault-free run.
func TestHarnessWaveRetries(t *testing.T) {
	faulty, err := NewHarnessWithConfig(hookedWorkload(0.05, "leaf", failFirstAttemptAt(2)), nil,
		HarnessConfig{Parallelism: 1, WaveRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := NewHarnessWithConfig(testWorkload(0.05), nil, HarnessConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}

	const waves = 6
	fres, err := faulty.Run(waves, Sync{})
	if err != nil {
		t.Fatal(err)
	}
	cres, err := clean.Run(waves, Sync{})
	if err != nil {
		t.Fatal(err)
	}
	fr, cr := fres.Reports["leaf"], cres.Reports["leaf"]
	for w := 0; w < waves; w++ {
		if fr.Measured[w] != cr.Measured[w] || fr.Predicted[w] != cr.Predicted[w] {
			t.Fatalf("wave %d diverged: measured %v vs %v, predicted %v vs %v",
				w, fr.Measured[w], cr.Measured[w], fr.Predicted[w], cr.Predicted[w])
		}
	}

	// Without the retry budget the same fault kills the run.
	doomed, err := NewHarnessWithConfig(hookedWorkload(0.05, "leaf", failFirstAttemptAt(2)), nil,
		HarnessConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doomed.Run(waves, Sync{}); !errors.Is(err, errBoom) {
		t.Fatalf("run without WaveRetries = %v, want errBoom", err)
	}
}

// TestFailedHarnessWaveRewindsBothInstances fails the first attempt of one
// copy's mid at wave 5 — the live copy's, then the reference copy's — with no
// wave retries. The run fails naming that instance, both instances are back at
// their wave-5 state whatever the other did, the result is untouched, and a
// later ResumeRun continues the clean run's series.
func TestFailedHarnessWaveRewindsBothInstances(t *testing.T) {
	const failWave, waves = 5, 10
	clean, err := NewHarnessWithConfig(testWorkload(0.05), nil, HarnessConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.Run(waves, Sync{})
	if err != nil {
		t.Fatal(err)
	}
	for copyIdx, which := range []string{"live", "ref"} { // NewHarness builds the live copy first
		t.Run(which, func(t *testing.T) {
			builds := 0
			mkHook := func() func(int) error {
				if builds++; builds == copyIdx+1 {
					return failFirstAttemptAt(failWave)()
				}
				return func(int) error { return nil }
			}
			h, err := NewHarnessWithConfig(hookedWorkload(0.05, "mid", mkHook), nil, HarnessConfig{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			res, err := h.Run(failWave, Sync{})
			if err != nil {
				t.Fatal(err)
			}
			live, ref, before := h.live.PersistState(), h.ref.PersistState(), res.Slice(0, res.Waves)

			err = h.ResumeRun(res, 1, Sync{})
			if !errors.Is(err, errBoom) || !strings.Contains(err.Error(), "harness "+which+" wave 5") {
				t.Fatalf("wave 5 = %v, want errBoom out of the %s instance", err, which)
			}
			if h.live.Wave() != failWave || h.ref.Wave() != failWave {
				t.Fatalf("live is at wave %d, ref at %d; want both at %d", h.live.Wave(), h.ref.Wave(), failWave)
			}
			if !reflect.DeepEqual(h.live.PersistState(), live) || !reflect.DeepEqual(h.ref.PersistState(), ref) {
				t.Fatal("a failed harness wave left instance state behind")
			}
			equalResults(t, res, before)

			if err := h.ResumeRun(res, waves-failWave, Sync{}); err != nil {
				t.Fatal(err)
			}
			equalResults(t, res, want)
		})
	}
}

// TestDegradeParallelEquivalence runs the permanent-failure degrade scenario
// at Parallelism 1 and 4: Executed/Degraded/Impacts must be bit-identical.
func TestDegradeParallelEquivalence(t *testing.T) {
	mkBroken := func() func(int) error {
		return func(w int) error {
			if w >= 2 && w%2 == 0 {
				return errBoom
			}
			return nil
		}
	}
	run := func(par int) []WaveResult {
		in := buildInstance(t, hookedWorkload(0.05, "mid", mkBroken),
			InstanceConfig{Parallelism: par, DegradeGated: true, StepRetries: 1})
		var out []WaveResult
		for w := 0; w < 6; w++ {
			res, err := in.RunWave(Sync{})
			if err != nil {
				t.Fatalf("par %d wave %d: %v", par, w, err)
			}
			out = append(out, res)
		}
		return out
	}
	seq, par := run(1), run(4)
	for w := range seq {
		for i := range seq[w].Impacts {
			if seq[w].Impacts[i] != par[w].Impacts[i] ||
				seq[w].Executed[i] != par[w].Executed[i] ||
				seq[w].Degraded[i] != par[w].Degraded[i] ||
				seq[w].SimErrors[i] != par[w].SimErrors[i] {
				t.Fatalf("wave %d step %d diverged across parallelism: %+v vs %+v", w, i, seq[w], par[w])
			}
		}
	}
}

// refCell addresses one cell of a referenceSnapshot.
type refCell struct{ row, col string }

// referenceSnapshot is the undo as the engine built it before its merge: a
// map of the saved cells per table. referenceRollback restores tables in
// sorted name order, and a table's vanished cells after its current ones,
// sorted by key.
type referenceSnapshot struct {
	tables map[string]*kvstore.Table
	saved  map[string]map[refCell][]byte
}

func referenceSave(t *testing.T, store *kvstore.Store, step *workflow.Step) referenceSnapshot {
	t.Helper()
	snap := referenceSnapshot{
		tables: make(map[string]*kvstore.Table),
		saved:  make(map[string]map[refCell][]byte),
	}
	for _, out := range step.Outputs {
		if _, done := snap.saved[out.Table]; done {
			continue
		}
		tb, err := store.EnsureTable(out.Table, kvstore.TableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		snap.tables[out.Table] = tb
		cells := make(map[refCell][]byte)
		for _, c := range tb.Scan(kvstore.ScanOptions{}) {
			cells[refCell{c.Row, c.Column}] = c.Version.Value
		}
		snap.saved[out.Table] = cells
	}
	return snap
}

func referenceRollback(t *testing.T, snap referenceSnapshot) {
	t.Helper()
	names := make([]string, 0, len(snap.tables))
	for name := range snap.tables {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		tb, saved := snap.tables[name], snap.saved[name]
		batch := kvstore.NewBatch()
		seen := make(map[refCell]bool)
		for _, c := range tb.Scan(kvstore.ScanOptions{}) {
			key := refCell{c.Row, c.Column}
			seen[key] = true
			old, had := saved[key]
			switch {
			case !had:
				batch.Delete(c.Row, c.Column)
			case string(old) != string(c.Version.Value):
				batch.Put(c.Row, c.Column, old)
			}
		}
		var vanished []refCell
		for key := range saved {
			if !seen[key] {
				vanished = append(vanished, key)
			}
		}
		slices.SortFunc(vanished, func(a, b refCell) int {
			if a.row != b.row {
				return strings.Compare(a.row, b.row)
			}
			return strings.Compare(a.col, b.col)
		})
		for _, key := range vanished {
			batch.Put(key.row, key.col, saved[key])
		}
		if err := tb.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRollbackOutputsMatchesReference holds rollbackOutputs to the map-and-
// sort undo it replaced (referenceRollback): over seeded random damage to
// several output tables — changed, unchanged, deleted and added cells, new
// rows, values on both sides of the 8 bytes a version holds inline, and a
// step that declares two containers of one table — the two must deliver the
// same mutations, field for field and timestamps included, and leave equal
// stores. The undo writes land in the version log and the WAL, so their
// order is part of every digest.
func TestRollbackOutputsMatchesReference(t *testing.T) {
	step := &workflow.Step{ID: "undo", Outputs: []workflow.Container{
		{Table: "gamma"}, {Table: "alpha", ColumnPrefix: "a"}, {Table: "delta"},
		{Table: "alpha", ColumnPrefix: "b"}, {Table: "beta"},
	}}
	value := func(rng *rand.Rand) []byte {
		v := make([]byte, rng.Intn(20))
		for i := range v {
			v[i] = byte('a' + rng.Intn(3))
		}
		return v
	}
	// build fills and then damages a store, the same one for a seed; save
	// runs between the two.
	build := func(seed int64, save func(*kvstore.Store)) (*kvstore.Store, *[]kvstore.Mutation) {
		rng := rand.New(rand.NewSource(seed))
		store := kvstore.New()
		var muts []kvstore.Mutation
		recording := false
		for _, name := range []string{"alpha", "beta", "delta", "gamma"} {
			tb, err := store.EnsureTable(name, kvstore.TableOptions{MaxVersions: 1 + rng.Intn(3)})
			if err != nil {
				t.Fatal(err)
			}
			tb.Subscribe(kvstore.ObserverFunc(func(m kvstore.Mutation) {
				if recording {
					muts = append(muts, m)
				}
			}))
			for i := rng.Intn(12); i > 0; i-- {
				if err := tb.Put("r"+strconv.Itoa(rng.Intn(5)), "c"+strconv.Itoa(rng.Intn(4)), value(rng)); err != nil {
					t.Fatal(err)
				}
			}
		}
		save(store)
		for _, name := range []string{"alpha", "beta", "delta", "gamma"} {
			tb, _ := store.Table(name)
			cells := tb.Scan(kvstore.ScanOptions{})
			for i := rng.Intn(10); i > 0; i-- {
				var err error
				switch op := rng.Intn(4); {
				case op == 0 && len(cells) > 0:
					c := cells[rng.Intn(len(cells))]
					err = tb.Delete(c.Row, c.Column)
				case op == 1 && len(cells) > 0:
					c := cells[rng.Intn(len(cells))]
					err = tb.Put(c.Row, c.Column, c.Version.Value) // rewritten unchanged
				default:
					err = tb.Put("r"+strconv.Itoa(rng.Intn(7)), "c"+strconv.Itoa(rng.Intn(5)), value(rng))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		recording = true
		return store, &muts
	}
	undone := 0
	for seed := int64(1); seed <= 200; seed++ {
		var snap []savedTable
		store, got := build(seed, func(s *kvstore.Store) {
			var err error
			// rollbackOutputs and saveOutputs read nothing from the
			// instance but its store.
			if snap, err = (&Instance{store: s}).saveOutputs(step); err != nil {
				t.Fatal(err)
			}
		})
		if err := (&Instance{store: store}).rollbackOutputs(snap); err != nil {
			t.Fatal(err)
		}
		var ref referenceSnapshot
		refStore, want := build(seed, func(s *kvstore.Store) { ref = referenceSave(t, s, step) })
		referenceRollback(t, ref)
		if !reflect.DeepEqual(*got, *want) {
			t.Fatalf("seed %d: undo mutations\n%+v\nwant the reference's\n%+v", seed, *got, *want)
		}
		if string(store.Dump()) != string(refStore.Dump()) {
			t.Fatalf("seed %d: stores differ after the undo", seed)
		}
		for _, s := range snap {
			now := s.t.Scan(kvstore.ScanOptions{})
			if len(now) != len(s.cells) {
				t.Fatalf("seed %d: table %s holds %d cells after the undo, saved %d", seed, s.t.Name(), len(now), len(s.cells))
			}
			for i, c := range now {
				if old := s.cells[i]; c.Row != old.Row || c.Column != old.Column || string(c.Version.Value) != string(old.Version.Value) {
					t.Fatalf("seed %d: table %s cell %d is %s=%q after the undo, saved %s=%q", seed, s.t.Name(), i, c.Key(), c.Version.Value, old.Key(), old.Version.Value)
				}
			}
		}
		undone += len(*got)
	}
	if undone == 0 {
		t.Fatal("no seed damaged anything the undo had to restore")
	}
}
