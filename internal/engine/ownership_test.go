package engine

// Tests of who owns the values a container state holds: the snapshot cache
// refills its buffers in place, trackers copy what they keep, and whatever
// leaves the engine is the caller's.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"smartflux/internal/kvstore"
	"smartflux/internal/metric"
	"smartflux/internal/workflow"
)

// smootherWorkload is a source and one gated step that reads its own output:
// "smooth" declares table sm as an input and as its output (Finalize drops
// the self-edge) and moves each row of sm halfway to the same row of raw.
func smootherWorkload() (*workflow.Workflow, *kvstore.Store, error) {
	store := kvstore.New()
	wf := workflow.New("smoother")
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
				for i := 0; i < 8; i++ {
					if err := t.PutFloat("r"+strconv.Itoa(i), "v", 50+10*math.Sin(float64(ctx.Wave)/3+float64(i))+float64(i)); err != nil {
						return err
					}
				}
				return nil
			}),
		},
		{
			ID:      "smooth",
			Inputs:  []workflow.Container{{Table: "raw"}, {Table: "sm"}},
			Outputs: []workflow.Container{{Table: "sm"}},
			QoD: workflow.QoD{
				MaxError:   0.01,
				ImpactFunc: metric.FuncAbsoluteImpact,
				ErrorFunc:  metric.FuncRelativeError,
				Mode:       metric.ModeCancellation,
			},
			Proc: workflow.ProcessorFunc(func(ctx *workflow.Context) error {
				raw, err := ctx.Table("raw")
				if err != nil {
					return err
				}
				sm, err := ctx.Table("sm")
				if err != nil {
					return err
				}
				for i := 0; i < 8; i++ {
					row := "r" + strconv.Itoa(i)
					v, _ := raw.GetFloat(row, "v")
					prev, ok := sm.GetFloat(row, "v")
					if !ok {
						prev = v
					}
					if err := sm.PutFloat(row, "v", (prev+v)/2); err != nil {
						return err
					}
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
	if err := wf.Finalize(); err != nil {
		return nil, nil, err
	}
	return wf, store, nil
}

// smootherSchedule runs smooth on two waves in three.
var smootherSchedule = DeciderFunc{PolicyName: "two-in-three", Fn: func(wave, _ int, _ []float64) bool { return wave%3 != 1 }}

// TestSelfReadingStepCommitsPreExecutionInput: smooth reads table sm and
// writes it. The ι baseline it commits for sm is sm as it was before smooth
// ran, not as smooth left it — which the snapshot cache refills its buffer
// with when smooth's ε is observed — and its ι series is the one recorded
// when every snapshot was a fresh allocation.
func TestSelfReadingStepCommitsPreExecutionInput(t *testing.T) {
	want := []float64{
		0, 713.2377343682862, 981.0390450014202, 129.43705875014845,
		124.45764102128652, 174.23747387854394, 148.3938442802732, 142.18711797322277,
		202.5477995125206, 164.23123492276792, 155.47015052643383, 216.47285463641174,
	}
	wf, store, err := smootherWorkload()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(wf, store, InstanceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sm, pos := workflow.Container{Table: "sm"}, inst.posOf["smooth"]
	for w, iota := range want {
		before := scanContainer(store, sm)
		res, err := inst.RunWave(smootherSchedule)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Impacts[0]; math.Float64bits(got) != math.Float64bits(iota) {
			t.Errorf("wave %d: ι = %v, want %v", w, got, iota)
		}
		if !res.Executed[0] {
			continue
		}
		base := inst.PersistState().Steps[pos].Impacts[1].Baseline
		if !slices.Equal(base.Keys, before.Keys) || !slices.Equal(base.Vals, before.Vals) {
			t.Errorf("wave %d: committed ι baseline of sm = %v, want the pre-execution %v", w, base, before)
		}
	}
}

// cloneColumns returns a deep copy of c.
func cloneColumns(c metric.Columns) metric.Columns {
	return metric.Columns{Keys: slices.Clone(c.Keys), Vals: slices.Clone(c.Vals)}
}

// TestResultsStayCallerOwned: what leaves the engine — HypotheticalOutput,
// OutputState, ScanColumns with no buffer and Container.Snapshot — never
// aliases a buffer the engine refills, so each still equals a copy taken
// when it was read after two more waves have rewritten every container.
func TestResultsStayCallerOwned(t *testing.T) {
	live := newTestInstance(t, 0.05, false)
	for w := 0; w < 3; w++ {
		if _, err := live.RunWave(Sync{}); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := live.HypotheticalOutput("mid")
	if err != nil {
		t.Fatal(err)
	}
	stale := live.OutputState("mid")
	raw, err := live.store.Table("raw")
	if err != nil {
		t.Fatal(err)
	}
	scanned, _ := raw.ScanColumns(kvstore.ScanOptions{}, nil)
	snap := workflow.Container{Table: "avg"}.Snapshot(live.store)
	results := []any{fresh, stale, scanned, snap}
	copies := []any{cloneColumns(fresh), cloneColumns(stale), cloneColumns(scanned), slices.Clone(snap)}
	for w := 0; w < 2; w++ {
		if _, err := live.RunWave(Sync{}); err != nil {
			t.Fatal(err)
		}
	}
	if reflect.DeepEqual(live.OutputState("mid"), copies[1]) {
		t.Fatal("mid's output did not change: the test would prove nothing")
	}
	for i, name := range []string{"HypotheticalOutput", "OutputState", "ScanColumns", "Container.Snapshot"} {
		if !reflect.DeepEqual(results[i], copies[i]) {
			t.Errorf("%s's result changed under later waves: %v, read as %v", name, results[i], copies[i])
		}
	}
}

// failAttemptsAt returns a hook factory failing the first n processor
// attempts at the given wave.
func failAttemptsAt(wave, n int) func() func(int) error {
	return func() func(int) error {
		failed := 0
		return func(w int) error {
			if w == wave && failed < n {
				failed++
				return errBoom
			}
			return nil
		}
	}
}

// cancellingMid is build with mid's trackers in cancellation mode, so the
// workflow has a tracker of each mode.
func cancellingMid(build BuildFunc) BuildFunc {
	return func() (*workflow.Workflow, *kvstore.Store, error) {
		wf, store, err := build()
		if err != nil {
			return nil, nil, err
		}
		mid, err := wf.Step("mid")
		if err != nil {
			return nil, nil, err
		}
		mid.QoD.Mode = metric.ModeCancellation
		return wf, store, nil
	}
}

// persistBytes is in's PersistState as a checkpoint encodes it.
func persistBytes(t *testing.T, in *Instance) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in.PersistState()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFailedWaveRewindsOwnedBaselines fails leaf at wave 5, after mid — in
// cancellation mode — has committed its ι and ε baselines that wave and
// leaf's accumulate-mode ι tracker has moved: once under two wave retries,
// which rewind to one mark twice, and once as two failed waves with no
// retries, each rewinding to a mark of its own. Every tracker's persisted
// state and every ι/ε series must equal a clean run's bit for bit.
func TestFailedWaveRewindsOwnedBaselines(t *testing.T) {
	const failWave, waves = 5, 9
	decider := DeciderFunc{PolicyName: "two-in-three", Fn: func(wave, _ int, _ []float64) bool { return wave%3 != 1 }}
	run := func(t *testing.T, hook func() func(int) error, cfg HarnessConfig, failures int) (*Harness, *Result) {
		t.Helper()
		h, err := NewHarnessWithConfig(cancellingMid(hookedWorkload(0.01, "leaf", hook)), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.Run(failWave, decider)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < failures; i++ {
			if err := h.ResumeRun(res, 1, decider); !errors.Is(err, errBoom) {
				t.Fatalf("failure %d: wave %d = %v, want errBoom", i, failWave, err)
			}
		}
		if err := h.ResumeRun(res, waves-failWave, decider); err != nil {
			t.Fatal(err)
		}
		return h, res
	}
	clean, want := run(t, failAttemptsAt(failWave, 0), HarnessConfig{}, 0)
	for _, tc := range []struct {
		name     string
		cfg      HarnessConfig
		failures int
	}{
		{"retried", HarnessConfig{WaveRetries: 2}, 0},
		{"failed twice", HarnessConfig{}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, res := run(t, failAttemptsAt(failWave, 2), tc.cfg, tc.failures)
			equalResults(t, res, want)
			if !bytes.Equal(persistBytes(t, h.live), persistBytes(t, clean.live)) {
				t.Error("live trackers differ from a clean run's")
			}
			if !bytes.Equal(persistBytes(t, h.ref), persistBytes(t, clean.ref)) {
				t.Error("reference trackers differ from a clean run's")
			}
		})
	}
}
