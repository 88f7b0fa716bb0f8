package core

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"smartflux/internal/engine"
	"smartflux/internal/fault"
	"smartflux/internal/kvstore"
	"smartflux/internal/workflow"
)

// durablePipelineConfig is the shared workload configuration for durability
// tests: long enough to train an accepted model, short enough to stay fast.
func durablePipelineConfig() PipelineConfig {
	return PipelineConfig{
		TrainWaves: 60,
		ApplyWaves: 40,
		Session:    Config{Seed: 3, Thresholds: []float64{0.2}, PositiveWeight: 6},
	}
}

func equalBoolMatrix(t *testing.T, what string, a, b [][]bool) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d waves", what, len(a), len(b))
	}
	for w := range a {
		if len(a[w]) != len(b[w]) {
			t.Fatalf("%s wave %d: %d vs %d cols", what, w, len(a[w]), len(b[w]))
		}
		for i := range a[w] {
			if a[w][i] != b[w][i] {
				t.Fatalf("%s wave %d col %d: %v vs %v", what, w, i, a[w][i], b[w][i])
			}
		}
	}
}

func equalIntMatrix(t *testing.T, what string, a, b [][]int) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d waves", what, len(a), len(b))
	}
	for w := range a {
		for i := range a[w] {
			if a[w][i] != b[w][i] {
				t.Fatalf("%s wave %d col %d: %d vs %d", what, w, i, a[w][i], b[w][i])
			}
		}
	}
}

// equalFloatMatrix compares bitwise — durability promises bit-identical
// recovery, not approximately-equal recovery.
func equalFloatMatrix(t *testing.T, what string, a, b [][]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d waves", what, len(a), len(b))
	}
	for w := range a {
		if len(a[w]) != len(b[w]) {
			t.Fatalf("%s wave %d: %d vs %d cols", what, w, len(a[w]), len(b[w]))
		}
		for i := range a[w] {
			if math.Float64bits(a[w][i]) != math.Float64bits(b[w][i]) {
				t.Fatalf("%s wave %d col %d: %v vs %v", what, w, i, a[w][i], b[w][i])
			}
		}
	}
}

func equalFloatSeries(t *testing.T, what string, a, b []float64) {
	t.Helper()
	equalFloatMatrix(t, what, [][]float64{a}, [][]float64{b})
}

func equalResult(t *testing.T, what string, a, b *engine.Result) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: nil mismatch", what)
	}
	if a == nil {
		return
	}
	if a.Waves != b.Waves {
		t.Fatalf("%s: %d vs %d waves", what, a.Waves, b.Waves)
	}
	equalBoolMatrix(t, what+" live-executed", a.LiveExecuted, b.LiveExecuted)
	equalBoolMatrix(t, what+" live-degraded", a.LiveDegraded, b.LiveDegraded)
	equalIntMatrix(t, what+" ref-labels", a.RefLabels, b.RefLabels)
	equalFloatMatrix(t, what+" ref-impacts", a.RefImpacts, b.RefImpacts)
	equalFloatMatrix(t, what+" ref-sim-errors", a.RefSimErrors, b.RefSimErrors)
	equalFloatMatrix(t, what+" live-impacts", a.LiveImpacts, b.LiveImpacts)
	if len(a.Reports) != len(b.Reports) {
		t.Fatalf("%s: %d vs %d reports", what, len(a.Reports), len(b.Reports))
	}
	for id, ra := range a.Reports {
		rb := b.Reports[id]
		if rb == nil {
			t.Fatalf("%s: report %q missing", what, id)
		}
		equalFloatSeries(t, what+" measured "+string(id), ra.Measured, rb.Measured)
		equalFloatSeries(t, what+" predicted "+string(id), ra.Predicted, rb.Predicted)
		equalFloatSeries(t, what+" end-to-end "+string(id), ra.EndToEnd, rb.EndToEnd)
	}
}

func equalReport(t *testing.T, a, b TestReport) {
	t.Helper()
	if a.Accepted != b.Accepted || len(a.PerLabel) != len(b.PerLabel) {
		t.Fatalf("test report shape: %+v vs %+v", a, b)
	}
	for i := range a.PerLabel {
		if a.PerLabel[i] != b.PerLabel[i] {
			t.Fatalf("test report label %d: %+v vs %+v", i, a.PerLabel[i], b.PerLabel[i])
		}
	}
}

func equalPipelineResult(t *testing.T, a, b *PipelineResult) {
	t.Helper()
	equalResult(t, "train", a.Train, b.Train)
	equalResult(t, "apply", a.Apply, b.Apply)
	equalReport(t, a.Test, b.Test)
}

// comparePredictors asserts bitwise-equal decisions and scores over an
// impact grid.
func comparePredictors(t *testing.T, a, b *Predictor) {
	t.Helper()
	for step := 0; step < 2; step++ {
		for x := 0.0; x <= 4.0; x += 0.125 {
			impacts := []float64{x, 4 - x}
			da, ea := a.Decide(step, impacts)
			db, eb := b.Decide(step, impacts)
			if (ea == nil) != (eb == nil) || da != db {
				t.Fatalf("step %d impacts %v: (%v,%v) vs (%v,%v)", step, impacts, da, ea, db, eb)
			}
		}
	}
}

func TestPredictorParamsRoundTrip(t *testing.T) {
	res, err := RunPipeline(miniWorkload(), nil, durablePipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := res.Session.Predictor()
	if err != nil {
		t.Fatal(err)
	}
	pp, err := p.Params()
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := PredictorFromParams(pp)
	if err != nil {
		t.Fatal(err)
	}
	comparePredictors(t, p, rebuilt)
}

func TestSessionCheckpointRoundTrip(t *testing.T) {
	res, err := RunPipeline(miniWorkload(), nil, durablePipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	cp, err := res.Session.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Predictor == nil || cp.Refit {
		t.Fatalf("forest predictor must export parameters (refit=%v)", cp.Refit)
	}
	restored := NewSession(durablePipelineConfig().Session.withDefaults())
	if err := restored.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	if restored.Phase() != res.Session.Phase() {
		t.Fatalf("phase %v vs %v", restored.Phase(), res.Session.Phase())
	}
	if restored.KnowledgeBase().Len() != res.Session.KnowledgeBase().Len() {
		t.Fatal("knowledge base size differs")
	}
	equalReport(t, restored.LastTestReport(), res.Session.LastTestReport())
	pa, _ := res.Session.Predictor()
	pb, err := restored.Predictor()
	if err != nil {
		t.Fatal(err)
	}
	comparePredictors(t, pa, pb)
}

// TestSessionCheckpointRefitFallback uses a classifier without exportable
// parameters: the checkpoint must mark Refit and restore by re-training.
func TestSessionCheckpointRefitFallback(t *testing.T) {
	cfg := durablePipelineConfig()
	cfg.Session = Config{Seed: 3, Classifier: ClassifierLogistic, Thresholds: []float64{0.2}}
	res, err := RunPipeline(miniWorkload(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := res.Session.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Predictor != nil || !cp.Refit {
		t.Fatalf("logistic predictor must fall back to refit (predictor=%v refit=%v)", cp.Predictor != nil, cp.Refit)
	}
	restored := NewSession(cfg.Session)
	if err := restored.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	if restored.Phase() != res.Session.Phase() {
		t.Fatalf("phase %v vs %v", restored.Phase(), res.Session.Phase())
	}
	pa, err := res.Session.Predictor()
	if err != nil {
		t.Fatal(err)
	}
	pb, err := restored.Predictor()
	if err != nil {
		t.Fatal(err)
	}
	comparePredictors(t, pa, pb)
}

// crashInWave runs the durable pipeline and kills its log at the first WAL
// append of wave k, counted from 0 across both phases: k waves are committed,
// wave k leaves an uncommitted tail.
func crashInWave(t *testing.T, cfg PipelineConfig, dir string, k int) {
	t.Helper()
	var wave atomic.Int64
	build := func() (*workflow.Workflow, *kvstore.Store, error) {
		wf, store, err := miniWorkload()()
		if err != nil {
			return nil, nil, err
		}
		src, err := wf.Step("src")
		if err != nil {
			return nil, nil, err
		}
		inner := src.Proc
		src.Proc = workflow.ProcessorFunc(func(ctx *workflow.Context) error {
			wave.Store(int64(ctx.Wave))
			return inner.Process(ctx)
		})
		return wf, store, nil
	}
	crashed := false
	hook := func(op string) error {
		if crashed || op == "wal_append" && wave.Load() == int64(k) {
			crashed = true
			return fault.ErrCrashed
		}
		return nil
	}
	wave.Store(-1)
	_, _, err := RunPipelineDurable(build, nil, cfg, DurableOptions{Dir: dir, Hook: hook})
	if !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("crash in wave %d: got %v", k, err)
	}
}

// TestDurablePipelineMatchesPlain holds the one lifecycle driver to its three
// entry conditions: not durable, fresh durable, and resumed — from a crash in
// the very first wave (nothing but the initial checkpoint to resume from),
// mid-training, in the last training wave, in the first application wave
// (training complete, model not yet built) and mid-application — all end in
// the same result.
func TestDurablePipelineMatchesPlain(t *testing.T) {
	cfg := durablePipelineConfig()
	plain, err := RunPipeline(miniWorkload(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dur, info, err := RunPipelineDurable(miniWorkload(), nil, cfg, DurableOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	equalPipelineResult(t, plain, dur)
	if info.Resumed {
		t.Error("fresh run reported Resumed")
	}
	if want := cfg.TrainWaves + cfg.ApplyWaves; info.Durable.Commits != want {
		t.Errorf("commits = %d, want %d", info.Durable.Commits, want)
	}

	for _, k := range []int{0, 20, cfg.TrainWaves - 1, cfg.TrainWaves, cfg.TrainWaves + 1, cfg.TrainWaves + 20} {
		dir := t.TempDir()
		crashInWave(t, cfg, dir, k)
		res, info, err := ResumePipeline(miniWorkload(), nil, cfg, DurableOptions{Dir: dir})
		if err != nil {
			t.Fatalf("resume after a crash in wave %d: %v", k, err)
		}
		if !info.Resumed || info.Recovery.Wave != k {
			t.Errorf("crash in wave %d: resumed=%v from wave %d", k, info.Resumed, info.Recovery.Wave)
		}
		equalPipelineResult(t, plain, res)
	}
}

func TestRunPipelineDurableRefusesExistingState(t *testing.T) {
	cfg := durablePipelineConfig()
	cfg.TrainWaves, cfg.ApplyWaves = 20, 0
	dir := t.TempDir()
	if _, _, err := RunPipelineDurable(miniWorkload(), nil, cfg, DurableOptions{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	_, _, err := RunPipelineDurable(miniWorkload(), nil, cfg, DurableOptions{Dir: dir})
	if err == nil || !strings.Contains(err.Error(), "resume") {
		t.Fatalf("second fresh run in the same dir must direct to resume, got %v", err)
	}
}

// A directory written before an epoch became one log file is neither a fresh
// start nor resumable: both entry points must refuse it and say why.
func TestDurableRefusesPreSingleFileState(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"snapshot-00000001.snap", "wal-00000001.log"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg := durablePipelineConfig()
	if _, _, err := RunPipelineDurable(miniWorkload(), nil, cfg, DurableOptions{Dir: dir}); err == nil || !strings.Contains(err.Error(), "predates") {
		t.Fatalf("fresh run over old-format state = %v, want a format error", err)
	}
	if _, _, err := ResumePipeline(miniWorkload(), nil, cfg, DurableOptions{Dir: dir}); err == nil || !strings.Contains(err.Error(), "predates") {
		t.Fatalf("resume of old-format state = %v, want a format error", err)
	}
}

func TestResumePipelineRequiresState(t *testing.T) {
	_, _, err := ResumePipeline(miniWorkload(), nil, durablePipelineConfig(), DurableOptions{Dir: t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), "no durable state") {
		t.Fatalf("resume without state must fail, got %v", err)
	}
}

func TestResumePipelineRejectsMismatchedWaves(t *testing.T) {
	cfg := durablePipelineConfig()
	dir := t.TempDir()
	crashPipeline(t, cfg, dir, 300)
	cfg.ApplyWaves = 99
	_, _, err := ResumePipeline(miniWorkload(), nil, cfg, DurableOptions{Dir: dir})
	if err == nil || !strings.Contains(err.Error(), "wave run") {
		t.Fatalf("mismatched wave config must fail, got %v", err)
	}
}

// crashPipeline runs the durable pipeline with a crash injected at the Nth
// WAL append and asserts it died from the injection.
func crashPipeline(t *testing.T, cfg PipelineConfig, dir string, appendN int) {
	t.Helper()
	inj := fault.New(fault.Policy{CrashPoints: map[string]int{"wal_append": appendN}})
	_, _, err := RunPipelineDurable(miniWorkload(), nil, cfg, DurableOptions{Dir: dir, Hook: inj.OpHook()})
	if !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("crash at append %d: got %v", appendN, err)
	}
}

func TestResumePipelineMidTrainingBitIdentical(t *testing.T) {
	cfg := durablePipelineConfig()
	plain, err := RunPipeline(miniWorkload(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	crashPipeline(t, cfg, dir, 300) // ≈ wave 20 of 60 training waves
	res, info, err := ResumePipeline(miniWorkload(), nil, cfg, DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Resumed {
		t.Error("resume must report Resumed")
	}
	if info.Recovery.Wave <= 0 || info.Recovery.Wave >= cfg.TrainWaves {
		t.Errorf("recovery wave %d should be mid-training", info.Recovery.Wave)
	}
	equalPipelineResult(t, plain, res)
}

func TestResumePipelineMidApplicationBitIdentical(t *testing.T) {
	cfg := durablePipelineConfig()
	plain, err := RunPipeline(miniWorkload(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	crashPipeline(t, cfg, dir, 1100) // past the ≈900 training appends
	res, info, err := ResumePipeline(miniWorkload(), nil, cfg, DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if info.Recovery.Wave <= cfg.TrainWaves {
		t.Fatalf("recovery wave %d should be mid-application (> %d)", info.Recovery.Wave, cfg.TrainWaves)
	}
	equalPipelineResult(t, plain, res)
}

func TestResumePipelineTwiceCrashSurvivesBoth(t *testing.T) {
	cfg := durablePipelineConfig()
	plain, err := RunPipeline(miniWorkload(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	crashPipeline(t, cfg, dir, 300)
	// Second crash during the resumed run, then a clean resume.
	inj := fault.New(fault.Policy{CrashPoints: map[string]int{"wal_append": 500}})
	_, _, err = ResumePipeline(miniWorkload(), nil, cfg, DurableOptions{Dir: dir, Hook: inj.OpHook()})
	if !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("second crash: got %v", err)
	}
	res, info, err := ResumePipeline(miniWorkload(), nil, cfg, DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Resumed {
		t.Error("resume must report Resumed")
	}
	equalPipelineResult(t, plain, res)
}

func TestHarnessDurableCrashResumeBitIdentical(t *testing.T) {
	const waves = 30
	clean, _, err := RunHarnessDurable(miniWorkload(), nil, waves, engine.NewRandom(0.5, 7), engine.HarnessConfig{}, DurableOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	inj := fault.New(fault.Policy{CrashPoints: map[string]int{"wal_append": 200}})
	_, _, err = RunHarnessDurable(miniWorkload(), nil, waves, engine.NewRandom(0.5, 7), engine.HarnessConfig{}, DurableOptions{Dir: dir, Hook: inj.OpHook()})
	if !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("crash run: got %v", err)
	}
	res, info, err := ResumeHarness(miniWorkload(), nil, waves, engine.NewRandom(0.5, 7), engine.HarnessConfig{}, DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Resumed || info.Recovery.Wave <= 0 {
		t.Errorf("resume info: %+v", info)
	}
	equalResult(t, "harness", clean, res)
}

func TestResumeKindMismatch(t *testing.T) {
	pipeDir, harnessDir := t.TempDir(), t.TempDir()
	crashPipeline(t, durablePipelineConfig(), pipeDir, 300)
	inj := fault.New(fault.Policy{CrashPoints: map[string]int{"wal_append": 100}})
	_, _, err := RunHarnessDurable(miniWorkload(), nil, 30, engine.NewRandom(0.5, 7), engine.HarnessConfig{}, DurableOptions{Dir: harnessDir, Hook: inj.OpHook()})
	if !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("harness crash run: got %v", err)
	}
	if _, _, err := ResumeHarness(miniWorkload(), nil, 30, engine.NewRandom(0.5, 7), engine.HarnessConfig{}, DurableOptions{Dir: pipeDir}); err == nil || !strings.Contains(err.Error(), "ResumePipeline") {
		t.Errorf("ResumeHarness on a pipeline dir must redirect, got %v", err)
	}
	if _, _, err := ResumePipeline(miniWorkload(), nil, durablePipelineConfig(), DurableOptions{Dir: harnessDir}); err == nil || !strings.Contains(err.Error(), "ResumeHarness") {
		t.Errorf("ResumePipeline on a harness dir must redirect, got %v", err)
	}
}
