package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"smartflux/internal/durable"
	"smartflux/internal/engine"
	"smartflux/internal/fault"
	"smartflux/internal/kvstore"
	"smartflux/internal/metric"
	"smartflux/internal/ml"
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

// comparePredictors asserts bitwise-equal scores and equal decisions over an
// impact grid spanning syntheticLog's range.
func comparePredictors(t *testing.T, a, b *Predictor) {
	t.Helper()
	for x := 0.0; x <= 10.0; x += 0.125 {
		impacts := []float64{x, 10 - x}
		sa, err := a.Scores(impacts)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := b.Scores(impacts)
		if err != nil {
			t.Fatal(err)
		}
		equalFloatSeries(t, "scores", sa, sb)
		for step := range sa {
			da, _ := a.Decide(step, impacts)
			db, _ := b.Decide(step, impacts)
			if da != db {
				t.Fatalf("step %d impacts %v: decide %v vs %v", step, impacts, da, db)
			}
		}
	}
}

// trainedSession fits a session on a 200-example, two-label synthetic log.
func trainedSession(t *testing.T, cfg Config) *Session {
	t.Helper()
	sess := NewSession(cfg)
	log := syntheticLog(200, 2, 13)
	for i := range log.X {
		sess.ObserveTrainingWave(log.X[i], log.Y[i])
	}
	if _, err := sess.Train(); err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestSessionCheckpointRoundTrip holds every classifier to the one restore
// path: the checkpoint — taken through the pipeline's gob codec — carries no
// model, and the session restored from it scores bit-identically. The last
// row appends examples with inverted labels after the fit: the restored model
// must come from the fitted prefix, not from everything the base holds.
func TestSessionCheckpointRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		extra int
	}{
		{"random-forest", Config{Seed: 3, Thresholds: []float64{0.2}, PositiveWeight: 6}, 0},
		{"decision-tree", Config{Seed: 3, Classifier: ClassifierDecisionTree}, 0},
		{"logistic", Config{Seed: 3, Classifier: ClassifierLogistic, Thresholds: []float64{0.2}}, 0},
		{"grown-after-fit", Config{Seed: 3}, 150},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sess := trainedSession(t, tc.cfg)
			fitted := sess.KnowledgeBase()
			n := fitted.Len()
			for i := 0; i < tc.extra; i++ {
				sess.ObserveTrainingWave(fitted.X[i], []int{1 - fitted.Y[i][0], 1 - fitted.Y[i][1]})
			}
			scp, err := sess.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			blob, err := encodePipelineCheckpoint(&PipelineCheckpoint{Session: scp})
			if err != nil {
				t.Fatal(err)
			}
			pcp, err := decodePipelineCheckpoint(blob)
			if err != nil {
				t.Fatal(err)
			}
			if cp := pcp.Session; cp.FittedOn != n || len(cp.KBX) != n+tc.extra {
				t.Fatalf("checkpoint: fitted on %d of %d examples, want %d of %d", cp.FittedOn, len(cp.KBX), n, n+tc.extra)
			}
			restored := NewSession(tc.cfg)
			if err := restored.RestoreCheckpoint(pcp.Session); err != nil {
				t.Fatal(err)
			}
			if restored.Phase() != sess.Phase() {
				t.Fatalf("phase %v vs %v", restored.Phase(), sess.Phase())
			}
			if got := restored.KnowledgeBase().Len(); got != n+tc.extra {
				t.Fatalf("knowledge base holds %d examples, want %d", got, n+tc.extra)
			}
			equalReport(t, restored.LastTestReport(), sess.LastTestReport())
			pa, err := sess.Predictor()
			if err != nil {
				t.Fatal(err)
			}
			pb, err := restored.Predictor()
			if err != nil {
				t.Fatal(err)
			}
			comparePredictors(t, pa, pb)
			// A second generation restores the same way: FittedOn survives.
			again, err := restored.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if again.FittedOn != n {
				t.Fatalf("restored session checkpoints FittedOn = %d, want %d", again.FittedOn, n)
			}
		})
	}
}

// The checkpoint's size is a function of the knowledge base alone: a forest
// ten times the size encodes to the same number of bytes, and no type of the
// ml packages is reachable from SessionCheckpoint.
func TestSessionCheckpointHoldsNoModel(t *testing.T) {
	size := func(trees int) int {
		sess := trainedSession(t, Config{Seed: 3, Factory: func() ml.Classifier {
			return ml.NewForest(ml.ForestConfig{Seed: 3, Trees: trees})
		}})
		scp, err := sess.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		// The test report differs with the model; the payload must not.
		scp.Report = TestReport{}
		blob, err := encodePipelineCheckpoint(&PipelineCheckpoint{Session: scp})
		if err != nil {
			t.Fatal(err)
		}
		return len(blob)
	}
	if small, large := size(10), size(100); small != large {
		t.Errorf("checkpoint of a 10-tree forest is %d bytes, of a 100-tree forest %d", small, large)
	}

	seen := map[reflect.Type]bool{}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		if typ.PkgPath() == "smartflux/internal/ml" {
			t.Errorf("%s reaches model type %v", path, typ)
		}
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		}
	}
	walk("SessionCheckpoint", reflect.TypeOf(SessionCheckpoint{}))
}

// Restoring an untrained checkpoint into a session that holds a predictor
// must leave no model deciding.
func TestRestoreUntrainedCheckpointDropsPredictor(t *testing.T) {
	fresh, err := NewSession(Config{Seed: 3}).Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	sess := trainedSession(t, Config{Seed: 3})
	if sess.Decide(0, 0, []float64{0, 0}) {
		t.Fatal("the trained session should skip a zero-impact wave")
	}
	if err := sess.RestoreCheckpoint(fresh); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Predictor(); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("Predictor() after restoring an untrained checkpoint = %v, want ErrNotTrained", err)
	}
	if sess.Phase() != PhaseTraining || sess.KnowledgeBase().Len() != 0 {
		t.Fatalf("phase %v, %d examples; want training, 0", sess.Phase(), sess.KnowledgeBase().Len())
	}
	for step := 0; step < 2; step++ {
		if !sess.Decide(0, step, []float64{0, 0}) {
			t.Fatalf("step %d skipped by a session restored to untrained", step)
		}
	}
}

// Malformed checkpoints are refused with an error and leave the session as
// it was — among them the shape an older build's application-phase
// checkpoint decodes to: no FittedOn, the model in fields gob now ignores.
func TestRestoreCheckpointRejectsMalformed(t *testing.T) {
	good, err := trainedSession(t, Config{Seed: 3}).Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		mutate func(cp *SessionCheckpoint)
		want   string
	}{
		"negative FittedOn":    {func(cp *SessionCheckpoint) { cp.FittedOn = -1 }, "fitted on -1"},
		"FittedOn beyond base": {func(cp *SessionCheckpoint) { cp.FittedOn = len(cp.KBX) + 1 }, "fitted on 201"},
		"missing label rows":   {func(cp *SessionCheckpoint) { cp.KBY = cp.KBY[:10] }, "label rows"},
		"labels without base":  {func(cp *SessionCheckpoint) { cp.KBX, cp.FittedOn = nil, 0 }, "knowledge base"},
		"ragged impact row":    {func(cp *SessionCheckpoint) { cp.KBX[150] = nil }, "row 150"},
		"older build":          {func(cp *SessionCheckpoint) { cp.FittedOn = 0 }, "stored the model in the checkpoint"},
	} {
		t.Run(name, func(t *testing.T) {
			cp := *good
			cp.KBX = append([][]float64(nil), good.KBX...)
			tc.mutate(&cp)
			sess := NewSession(Config{Seed: 3})
			err := sess.RestoreCheckpoint(&cp)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore = %v, want an error naming %q", err, tc.want)
			}
			if _, perr := sess.Predictor(); !errors.Is(perr, ErrNotTrained) || sess.KnowledgeBase().Len() != 0 || sess.Phase() != PhaseTraining {
				t.Fatal("a refused restore changed the session")
			}
		})
	}
}

// miniWorkloadOnWave is miniWorkload whose source step first reports the wave
// it is about to run (in both harness instances, which may run at the same
// time: onWave must be safe for concurrent use).
func miniWorkloadOnWave(onWave func(wave int)) engine.BuildFunc {
	return func() (*workflow.Workflow, *kvstore.Store, error) {
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
			onWave(ctx.Wave)
			return inner.Process(ctx)
		})
		return wf, store, nil
	}
}

// crashInWave runs the durable pipeline and kills its log at the first WAL
// append of wave k, counted from 0 across both phases: k waves are committed,
// wave k leaves an uncommitted tail.
func crashInWave(t testing.TB, cfg PipelineConfig, dir string, k int) {
	t.Helper()
	var wave atomic.Int64
	build := miniWorkloadOnWave(func(w int) { wave.Store(int64(w)) })
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
// the same result, whatever the classifier: every model comes back by the
// same fit.
func TestDurablePipelineMatchesPlain(t *testing.T) {
	for _, classifier := range []string{ClassifierRandomForest, ClassifierLogistic} {
		t.Run(classifier, func(t *testing.T) {
			cfg := durablePipelineConfig()
			cfg.Session.Classifier = classifier
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
		})
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

// Resume must not change policy silently: a directory is resumed under the
// policy that wrote it or refused naming both — in either direction between the
// session and a policy that does not learn, and between two of those.
func TestResumePipelineRefusesAnotherPolicy(t *testing.T) {
	base := durablePipelineConfig()
	for _, tc := range []struct{ wrote, resume string }{
		{"seq3", "smartflux"}, {"smartflux", "seq3"}, {"seq3", "random"}, {"random", "sync"},
	} {
		t.Run(tc.wrote+" as "+tc.resume, func(t *testing.T) {
			under := func(name string) PipelineConfig {
				cfg := base
				if name != "smartflux" {
					cfg.Policy = testPolicies[name]()
				}
				return cfg
			}
			dir := t.TempDir()
			crashInWave(t, under(tc.wrote), dir, base.TrainWaves+20)
			_, _, err := ResumePipeline(miniWorkload(), nil, under(tc.resume), DurableOptions{Dir: dir})
			if err == nil || !strings.Contains(err.Error(), `policy "`+tc.wrote+`"`) || !strings.Contains(err.Error(), `policy "`+tc.resume+`"`) {
				t.Fatalf("resume = %v, want a refusal naming %s and %s", err, tc.wrote, tc.resume)
			}
			if _, _, err := ResumePipeline(miniWorkload(), nil, under(tc.wrote), DurableOptions{Dir: dir}); err != nil {
				t.Fatal(err)
			}
		})
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

// A model the test phase rejected is still the run's model: resuming
// mid-application must restore it and its report, not feed the training log
// into the knowledge base a second time and train again.
func TestResumePipelineRejectedModelBitIdentical(t *testing.T) {
	cfg := durablePipelineConfig()
	cfg.Session.MinAccuracy = 1.1 // unreachable: every model is rejected
	plain, err := RunPipeline(miniWorkload(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Test.Accepted {
		t.Fatal("the model should have been rejected")
	}
	dir := t.TempDir()
	crashInWave(t, cfg, dir, cfg.TrainWaves+20)
	res, _, err := ResumePipeline(miniWorkload(), nil, cfg, DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	equalPipelineResult(t, plain, res)
	if got, want := res.Session.KnowledgeBase().Len(), plain.Session.KnowledgeBase().Len(); got != want {
		t.Errorf("resumed knowledge base holds %d examples, want %d", got, want)
	}
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

// walFiles reads every epoch log a durable run left in dir, by file name.
func walFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("epoch logs in %s: %v, %v", dir, paths, err)
	}
	files := make(map[string][]byte, len(paths))
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Base(path)] = b
	}
	return files
}

// TestDurablePipelineSameInputSameBytes: the checkpoint payload holds run
// state in slices in the order the engine fixes, so what a durable run writes
// is a function of its input — two runs of one configuration, crossing
// several rotations, leave byte-identical epoch logs. (The one map left in the
// payload is Result.Reports; it has a single entry here. DESIGN.md §6.)
//
// A crashed-and-resumed run commits the uncrashed run's bytes too: its last
// committed payload is compared at the end of the run. Its log files are not —
// a resume opens a new epoch at the recovered wave, so file names and rotation
// boundaries shift with the crash point.
func TestDurablePipelineSameInputSameBytes(t *testing.T) {
	cfg := durablePipelineConfig()
	cfg.Parallelism = 1
	opts := func(dir string) DurableOptions {
		return DurableOptions{Dir: dir, Fsync: durable.FsyncNever, SnapshotEvery: 7}
	}
	first, second := t.TempDir(), t.TempDir()
	for _, dir := range []string{first, second} {
		if _, info, err := RunPipelineDurable(miniWorkload(), nil, cfg, opts(dir)); err != nil {
			t.Fatal(err)
		} else if info.Durable.Snapshots < 2 {
			t.Fatalf("%d rotations: the run should cross several", info.Durable.Snapshots)
		}
	}
	a, b := walFiles(t, first), walFiles(t, second)
	if len(a) != len(b) {
		t.Fatalf("%d vs %d epoch logs", len(a), len(b))
	}
	for name, want := range a {
		if got, ok := b[name]; !ok || !bytes.Equal(got, want) {
			t.Errorf("%s: two runs of one input wrote different bytes (%d vs %d)", name, len(want), len(got))
		}
	}

	whole, err := recoverRun(opts(first))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{20, cfg.TrainWaves, cfg.TrainWaves + 20} {
		dir := t.TempDir()
		crashInWave(t, cfg, dir, k)
		if _, _, err := ResumePipeline(miniWorkload(), nil, cfg, opts(dir)); err != nil {
			t.Fatal(err)
		}
		resumed, err := recoverRun(opts(dir))
		if err != nil {
			t.Fatal(err)
		}
		if resumed.Wave != whole.Wave || !bytes.Equal(resumed.Payload, whole.Payload) {
			t.Errorf("crash in wave %d: the resumed run's last payload (wave %d, %d bytes) differs from the uncrashed run's (wave %d, %d bytes)",
				k, resumed.Wave, len(resumed.Payload), whole.Wave, len(whole.Payload))
		}
	}
}

// directoryWithPayload writes a durable directory holding rec's stores and,
// as its one committed checkpoint, payload at rec's wave: the directory a
// build with another checkpoint shape would have left at that boundary.
func directoryWithPayload(t *testing.T, rec *recovered, payload []byte) string {
	t.Helper()
	dir := t.TempDir()
	mgr, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{durableLiveStore, durableRefStore} {
		store := kvstore.New()
		if err := rec.Apply(name, store); err != nil {
			t.Fatal(err)
		}
		if err := mgr.Register(name, store); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.Begin(rec.Wave, payload); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestResumeRefusesSplitResultDirectory commits the result split the build
// before PR 19 committed in its application phase — the finished training
// result in its own field, the harness result and wave counter restarting at
// zero — around this build's instance state, so the payload decodes and the
// wave check is what meets it: ResumePipeline must refuse the directory rather
// than read the application waves as a run still in training.
func TestResumeRefusesSplitResultDirectory(t *testing.T) {
	type oldHarnessCheckpoint struct {
		Waves           int
		Result          *engine.Result
		Live, Ref       engine.InstancePersist
		Measures        []engine.MeasurePersist
		DeciderState    []byte
		HasDeciderState bool
	}
	type oldPipelineCheckpoint struct {
		Phase      string
		TrainWaves int
		ApplyWaves int
		Train      *engine.Result
		Harness    *oldHarnessCheckpoint
		Session    *SessionCheckpoint
	}
	cfg := durablePipelineConfig()
	crashed := t.TempDir()
	crashInWave(t, cfg, crashed, cfg.TrainWaves+20)
	rec, err := recoverRun(DurableOptions{Dir: crashed})
	if err != nil || rec == nil {
		t.Fatalf("recover: %v", err)
	}
	h := rec.cp.Harness
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(oldPipelineCheckpoint{
		Phase:      "application",
		TrainWaves: cfg.TrainWaves,
		ApplyWaves: cfg.ApplyWaves,
		Train:      h.Result.Slice(0, cfg.TrainWaves),
		Harness: &oldHarnessCheckpoint{
			Waves:    h.Result.Waves - cfg.TrainWaves,
			Result:   h.Result.Slice(cfg.TrainWaves, h.Result.Waves),
			Live:     h.Live,
			Ref:      h.Ref,
			Measures: h.Measures,
		},
		Session: rec.cp.Session,
	}); err != nil {
		t.Fatal(err)
	}

	dir := directoryWithPayload(t, rec, old.Bytes())
	_, _, err = ResumePipeline(miniWorkload(), nil, cfg, DurableOptions{Dir: dir})
	if err == nil || !strings.Contains(err.Error(), "kept the training result apart") {
		t.Fatalf("resume of a split-result directory = %v, want a refusal naming the older build", err)
	}
	// The same state in this build's shape resumes.
	if _, _, err := ResumePipeline(miniWorkload(), nil, cfg, DurableOptions{Dir: crashed}); err != nil {
		t.Fatal(err)
	}
}

// TestResumeRefusesTwoBaselineDirectory commits a mid-application boundary in
// the field set of the build before this one — two baselines per tracker, step
// state and measure accumulators in maps keyed by step — and requires both
// entry points to refuse the directory by name. Were only the tracker fields
// renamed, it would decode to HasBaseline over a nil baseline and resume on
// wrong impacts.
func TestResumeRefusesTwoBaselineDirectory(t *testing.T) {
	type oldTracker struct {
		ExecBaseline, WaveBaseline elemList
		Accumulated, Current       float64
		HasBaseline                bool
	}
	type oldStep struct {
		ExecutedEver            bool
		LastExecWave, ExecCount int
		Impacts, Errors         []oldTracker
	}
	type oldInstance struct {
		Wave    int
		Impacts []float64
		Steps   map[workflow.StepID]oldStep
	}
	type oldHarnessCheckpoint struct {
		Result          *engine.Result
		Live, Ref       oldInstance
		Measures        map[workflow.StepID]elemMeasure
		DeciderState    []byte
		HasDeciderState bool
	}
	type oldPipelineCheckpoint struct {
		TrainWaves, ApplyWaves int
		Harness                *oldHarnessCheckpoint
		Session                *SessionCheckpoint
	}
	order := []workflow.StepID{"src", "agg"} // miniWorkload's topological order
	oldTrackers := func(ts []metric.PersistedTracker) []oldTracker {
		out := make([]oldTracker, len(ts))
		for i, tr := range ts {
			out[i] = oldTracker{elemListOf(tr.Baseline), elemListOf(tr.Baseline), tr.Accumulated, tr.Current, tr.HasBaseline}
		}
		return out
	}
	oldInstanceOf := func(p engine.InstancePersist) oldInstance {
		out := oldInstance{Wave: p.Wave, Impacts: p.Impacts, Steps: map[workflow.StepID]oldStep{}}
		for pos, sp := range p.Steps {
			out.Steps[order[pos]] = oldStep{sp.LastExecWave >= 0, sp.LastExecWave, sp.ExecCount, oldTrackers(sp.Impacts), oldTrackers(sp.Errors)}
		}
		return out
	}

	cfg := durablePipelineConfig()
	crashed := t.TempDir()
	crashInWave(t, cfg, crashed, cfg.TrainWaves+20)
	rec, err := recoverRun(DurableOptions{Dir: crashed})
	if err != nil || rec == nil {
		t.Fatalf("recover: %v", err)
	}
	h := rec.cp.Harness
	requireRefused(t, cfg, crashed, rec, oldPipelineCheckpoint{
		TrainWaves: cfg.TrainWaves,
		ApplyWaves: cfg.ApplyWaves,
		Harness: &oldHarnessCheckpoint{
			Result:   h.Result,
			Live:     oldInstanceOf(h.Live),
			Ref:      oldInstanceOf(h.Ref),
			Measures: map[workflow.StepID]elemMeasure{"agg": elemMeasures(h.Measures)[0]},
		},
		Session: rec.cp.Session,
	}, "kept two baselines per tracker")
}

// elemList is a container state in the element-list form older builds
// checkpointed it in: tracker baselines until trackers held Columns, and the
// report steps' fresh outputs one build longer.
type elemList []struct {
	Key string
	Val float64
}

// elemListOf converts a container state to its element list.
func elemListOf(c metric.Columns) elemList {
	s := make(elemList, c.Len())
	for i, key := range c.Keys {
		s[i].Key, s[i].Val = key, c.Vals[i]
	}
	return s
}

// elemMeasure is a report step's measure accumulator with its fresh output
// as an element list.
type elemMeasure struct {
	FreshPrev elemList
	Accum     float64
}

// elemMeasures converts measure accumulators to elemMeasures.
func elemMeasures(ms []engine.MeasurePersist) []elemMeasure {
	out := make([]elemMeasure, len(ms))
	for i, m := range ms {
		out[i] = elemMeasure{elemListOf(m.FreshPrev), m.Accum}
	}
	return out
}

// requireRefused writes payload, a checkpoint in an older build's field set,
// as the last commit of a copy of rec's directory, and requires ResumePipeline
// and RunPipelineDurable to refuse the copy with an error containing want,
// and crashed, the same state in this build's shape, to resume.
func requireRefused(t *testing.T, cfg PipelineConfig, crashed string, rec *recovered, payload any, want string) {
	t.Helper()
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(payload); err != nil {
		t.Fatal(err)
	}
	dir := directoryWithPayload(t, rec, old.Bytes())
	if _, _, err := ResumePipeline(miniWorkload(), nil, cfg, DurableOptions{Dir: dir}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("resume of an older build's directory = %v, want a refusal naming %q", err, want)
	}
	if _, _, err := RunPipelineDurable(miniWorkload(), nil, cfg, DurableOptions{Dir: dir}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("fresh run over an older build's directory = %v, want a refusal naming %q", err, want)
	}
	if _, _, err := ResumePipeline(miniWorkload(), nil, cfg, DurableOptions{Dir: crashed}); err != nil {
		t.Fatal(err)
	}
}

// TestResumeRefusesStateBaselineDirectory commits a mid-application boundary
// in the field set of the build before tracker baselines became Columns —
// each baseline and each report step's fresh output an element list,
// everything else as now — and requires both entry points to refuse the
// directory by name, and the same state in this build's shape to resume.
func TestResumeRefusesStateBaselineDirectory(t *testing.T) {
	type oldTracker struct {
		Baseline             elemList
		Accumulated, Current float64
		HasBaseline          bool
	}
	type oldStep struct {
		LastExecWave, ExecCount int
		Impacts, Errors         []oldTracker
	}
	type oldInstance struct {
		Wave    int
		Impacts []float64
		Steps   []oldStep
	}
	type oldHarnessCheckpoint struct {
		Result          *engine.Result
		Live, Ref       oldInstance
		Measures        []elemMeasure
		DeciderState    []byte
		HasDeciderState bool
	}
	type oldPipelineCheckpoint struct {
		TrainWaves, ApplyWaves int
		Policy                 string
		Harness                *oldHarnessCheckpoint
		Session                *SessionCheckpoint
	}
	oldTrackers := func(ts []metric.PersistedTracker) []oldTracker {
		out := make([]oldTracker, len(ts))
		for i, tr := range ts {
			out[i] = oldTracker{elemListOf(tr.Baseline), tr.Accumulated, tr.Current, tr.HasBaseline}
		}
		return out
	}
	oldInstanceOf := func(p engine.InstancePersist) oldInstance {
		out := oldInstance{Wave: p.Wave, Impacts: p.Impacts}
		for _, sp := range p.Steps {
			out.Steps = append(out.Steps, oldStep{sp.LastExecWave, sp.ExecCount, oldTrackers(sp.Impacts), oldTrackers(sp.Errors)})
		}
		return out
	}

	cfg := durablePipelineConfig()
	crashed := t.TempDir()
	crashInWave(t, cfg, crashed, cfg.TrainWaves+20)
	rec, err := recoverRun(DurableOptions{Dir: crashed})
	if err != nil || rec == nil {
		t.Fatalf("recover: %v", err)
	}
	h := rec.cp.Harness
	requireRefused(t, cfg, crashed, rec, oldPipelineCheckpoint{
		TrainWaves: cfg.TrainWaves,
		ApplyWaves: cfg.ApplyWaves,
		Policy:     rec.cp.Policy,
		Harness: &oldHarnessCheckpoint{
			Result:   h.Result,
			Live:     oldInstanceOf(h.Live),
			Ref:      oldInstanceOf(h.Ref),
			Measures: elemMeasures(h.Measures),
		},
		Session: rec.cp.Session,
	}, "kept tracker baselines as element lists")
}

// TestResumeRefusesStateMeasureDirectory commits a mid-application boundary
// in the field set of the build before report steps' fresh outputs became
// Columns — tracker baselines as now, each fresh output an element list — and
// requires both entry points to refuse the directory by name, and the same
// state in this build's shape to resume.
func TestResumeRefusesStateMeasureDirectory(t *testing.T) {
	type oldHarnessCheckpoint struct {
		Result          *engine.Result
		Live, Ref       engine.InstancePersist
		Measures        []elemMeasure
		DeciderState    []byte
		HasDeciderState bool
	}
	type oldPipelineCheckpoint struct {
		TrainWaves, ApplyWaves int
		Policy                 string
		Harness                *oldHarnessCheckpoint
		Session                *SessionCheckpoint
	}
	cfg := durablePipelineConfig()
	crashed := t.TempDir()
	crashInWave(t, cfg, crashed, cfg.TrainWaves+20)
	rec, err := recoverRun(DurableOptions{Dir: crashed})
	if err != nil || rec == nil {
		t.Fatalf("recover: %v", err)
	}
	h := rec.cp.Harness
	if len(h.Measures) == 0 {
		t.Fatal("the crashed run measured no report step: the payload would hold no fresh output")
	}
	requireRefused(t, cfg, crashed, rec, oldPipelineCheckpoint{
		TrainWaves: cfg.TrainWaves,
		ApplyWaves: cfg.ApplyWaves,
		Policy:     rec.cp.Policy,
		Harness: &oldHarnessCheckpoint{
			Result:   h.Result,
			Live:     h.Live,
			Ref:      h.Ref,
			Measures: elemMeasures(h.Measures),
		},
		Session: rec.cp.Session,
	}, "fresh outputs as element lists")
}

// TestResumeDirectoryWithoutPolicyName commits a mid-application boundary in
// the field set of the build before policies were recorded. Only the session
// was journaled then, so the directory reads as smartflux: it resumes under
// the session to the uncrashed result, and is refused under anything else.
func TestResumeDirectoryWithoutPolicyName(t *testing.T) {
	type oldPipelineCheckpoint struct {
		TrainWaves, ApplyWaves int
		Harness                *engine.HarnessCheckpoint
		Session                *SessionCheckpoint
	}
	cfg := durablePipelineConfig()
	plain, err := RunPipeline(miniWorkload(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	crashed := t.TempDir()
	crashInWave(t, cfg, crashed, cfg.TrainWaves+20)
	rec, err := recoverRun(DurableOptions{Dir: crashed})
	if err != nil || rec == nil {
		t.Fatalf("recover: %v", err)
	}
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(oldPipelineCheckpoint{cfg.TrainWaves, cfg.ApplyWaves, rec.cp.Harness, rec.cp.Session}); err != nil {
		t.Fatal(err)
	}
	dir := directoryWithPayload(t, rec, old.Bytes())
	other := cfg
	other.Policy = engine.NewSeq(3)
	if _, _, err := ResumePipeline(miniWorkload(), nil, other, DurableOptions{Dir: dir}); err == nil || !strings.Contains(err.Error(), `policy "smartflux"`) {
		t.Fatalf("resume under seq3 = %v, want a refusal naming smartflux", err)
	}
	res, _, err := ResumePipeline(miniWorkload(), nil, cfg, DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	equalPipelineResult(t, plain, res)
}

// FuzzRestoreCheckpoint feeds arbitrary bytes through the checkpoint decoder
// and, when they decode, through Session.RestoreCheckpoint — if they hold a
// session — and, into a fresh mini-workload harness, Harness.RestoreCheckpoint
// under the policy they were written by: that session, or for a payload
// without one the stateful policy that does not learn, engine.NewRandom, whose
// state is a draw count restore replays. Nothing may panic or spin, a refused
// session restore must leave no predictor behind, and a refused harness restore
// must leave harness and policy a pair never restored into. The seeds are the
// last committed payloads of a mini-workload run killed mid-training, in its
// first application wave (every training wave committed, none after) and
// mid-application, and of a random-policy run killed mid-application.
func FuzzRestoreCheckpoint(f *testing.F) {
	cfg := durablePipelineConfig()
	newRandom := testPolicies["random"]
	seed := func(cfg PipelineConfig, k int) {
		dir := f.TempDir()
		crashInWave(f, cfg, dir, k)
		rec, err := recoverRun(DurableOptions{Dir: dir})
		if err != nil || rec == nil {
			f.Fatalf("seed payload of wave %d: %v", k, err)
		}
		f.Add(rec.Payload)
	}
	for _, k := range []int{20, cfg.TrainWaves, cfg.TrainWaves + 20} {
		seed(cfg, k)
	}
	random := cfg
	random.Policy = newRandom()
	seed(random, cfg.TrainWaves+20)

	const waves = 3
	cleanRun := func(t testing.TB, h *engine.Harness, d engine.Decider) *engine.Result {
		res, err := h.Run(waves, d)
		if err != nil {
			t.Fatalf("the harness no longer runs: %v", err)
		}
		return res
	}
	newHarness := func(t testing.TB) *engine.Harness {
		h, err := engine.NewHarnessWithConfig(miniWorkload(), nil, engine.HarnessConfig{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	cleanSync := cleanRun(f, newHarness(f), engine.Sync{})
	cleanRandom := cleanRun(f, newHarness(f), newRandom())
	f.Fuzz(func(t *testing.T, payload []byte) {
		cp, err := decodePipelineCheckpoint(payload)
		if err != nil {
			return
		}
		// After a refused harness restore the harness runs under after and must
		// produce want: the random policy itself, which the refusal left unmoved,
		// or — a restored session decides by its model — plain Sync.
		policy := newRandom()
		after, want := policy, cleanRandom
		if cp.Session != nil {
			sess := NewSession(cfg.Session)
			if err := sess.RestoreCheckpoint(cp.Session); err != nil {
				if _, perr := sess.Predictor(); !errors.Is(perr, ErrNotTrained) {
					t.Fatalf("restore failed (%v) yet left a predictor", err)
				}
			}
			policy, after, want = sess, engine.Sync{}, cleanSync
		}
		if cp.Harness == nil {
			return
		}
		h := newHarness(t)
		if _, err := h.RestoreCheckpoint(cp.Harness, policy); err != nil {
			equalResult(t, "run after a refused restore", want, cleanRun(t, h, after))
		}
	})
}
