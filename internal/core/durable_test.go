package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
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

// TestPipelineCheckpointHoldsNoModel: a model is a function of the session's
// Config and the result's training waves, so no type of the ml packages is
// reachable from the pipeline checkpoint.
func TestPipelineCheckpointHoldsNoModel(t *testing.T) {
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
	walk("PipelineCheckpoint", reflect.TypeOf(PipelineCheckpoint{}))
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
	logistic, err := ClassifierFactory(ClassifierLogistic, durablePipelineConfig().Session.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, classifier := range []struct {
		name    string
		factory func() ml.Classifier
	}{{ClassifierRandomForest, nil}, {ClassifierLogistic, logistic}} {
		t.Run(classifier.name, func(t *testing.T) {
			cfg := durablePipelineConfig()
			cfg.Session.Factory = classifier.factory
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

// TestCrashAtEveryWaveBoundary crashes the durable pipeline at the first WAL
// append of every wave k, resumes it, and holds the result and the live
// store's dump — values, versions and logical timestamps — to the uncrashed
// run's, under the session and three policies that do not learn. Each point
// is a subtest, so a failure names its policy and wave. Under -race it
// crashes every tenth wave and on both sides of the training boundary.
func TestCrashAtEveryWaveBoundary(t *testing.T) {
	base := durablePipelineConfig()
	var waves []int
	for k := 0; k < base.TrainWaves+base.ApplyWaves; k++ {
		if !raceEnabled || k%10 == 0 || k >= base.TrainWaves-1 && k <= base.TrainWaves+1 {
			waves = append(waves, k)
		}
	}
	for _, name := range []string{"smartflux", "sync", "seq3", "random"} {
		// under builds name's configuration with a policy never run before.
		under := func() PipelineConfig {
			cfg := base
			if name != "smartflux" {
				cfg.Policy = testPolicies[name]()
			}
			return cfg
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			plain, err := RunPipeline(miniWorkload(), nil, under())
			if err != nil {
				t.Fatal(err)
			}
			want := plain.Store.Dump()
			for _, k := range waves {
				t.Run(fmt.Sprintf("wave%d", k), func(t *testing.T) {
					dir := t.TempDir()
					crashInWave(t, under(), dir, k)
					res, info, err := ResumePipeline(miniWorkload(), nil, under(), DurableOptions{Dir: dir})
					if err != nil {
						t.Fatal(err)
					}
					if info.Recovery.Wave != k {
						t.Fatalf("resumed from wave %d", info.Recovery.Wave)
					}
					equalPipelineResult(t, plain, res)
					if got := res.Store.Dump(); !bytes.Equal(got, want) {
						t.Fatalf("live store dump differs from the uncrashed run's (%d vs %d bytes)", len(got), len(want))
					}
				})
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
// mid-application must train the same rejected model and report, feeding the
// training log into the knowledge base once.
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

// crashedMidApplication runs cfg into a fresh directory, kills it 20 waves
// into the application phase and returns the directory with its recovery.
func crashedMidApplication(t *testing.T, cfg PipelineConfig) (string, *recovered) {
	t.Helper()
	crashed := t.TempDir()
	crashInWave(t, cfg, crashed, cfg.TrainWaves+20)
	rec, err := recoverRun(DurableOptions{Dir: crashed})
	if err != nil || rec == nil {
		t.Fatalf("recover: %v", err)
	}
	return crashed, rec
}

// untaggedPayload gob-encodes v with no format tag, as every build before the
// tag journaled its checkpoint.
func untaggedPayload(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// requireRefused writes payload as the last commit of a copy of rec's
// directory and requires ResumePipeline, under cfg and under every other
// policy given, and RunPipelineDurable to refuse the copy with the one error
// naming this build's format; crashed, the same state in this build's format,
// must resume.
func requireRefused(t *testing.T, cfg PipelineConfig, crashed string, rec *recovered, payload []byte, others ...engine.Decider) {
	t.Helper()
	want := fmt.Sprintf("not in format %s v%d", checkpointMagic, checkpointVersion)
	dir := directoryWithPayload(t, rec, payload)
	if _, _, err := ResumePipeline(miniWorkload(), nil, cfg, DurableOptions{Dir: dir}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("resume = %v, want a refusal naming %q", err, want)
	}
	for _, policy := range others {
		under := cfg
		under.Policy = policy
		if _, _, err := ResumePipeline(miniWorkload(), nil, under, DurableOptions{Dir: dir}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("resume under %s = %v, want a refusal naming %q", policy.Name(), err, want)
		}
	}
	if _, _, err := RunPipelineDurable(miniWorkload(), nil, cfg, DurableOptions{Dir: dir}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("fresh run over it = %v, want a refusal naming %q", err, want)
	}
	if _, _, err := ResumePipeline(miniWorkload(), nil, cfg, DurableOptions{Dir: crashed}); err != nil {
		t.Fatal(err)
	}
}

// TestResumeRefusesAnotherFormat commits, as the last checkpoint of a copy
// of a crashed run's directory, that run's checkpoint gob-encoded with no
// format tag and tagged with another format version. Both entry points must
// refuse both copies with the one error naming the format, and the crashed
// directory itself resumes.
func TestResumeRefusesAnotherFormat(t *testing.T) {
	cfg := durablePipelineConfig()
	crashed, rec := crashedMidApplication(t, cfg)
	tagged, err := encodePipelineCheckpoint(rec.cp)
	if err != nil {
		t.Fatal(err)
	}
	tagged[len(checkpointMagic)]++
	t.Run("untagged", func(t *testing.T) { requireRefused(t, cfg, crashed, rec, untaggedPayload(t, rec.cp)) })
	t.Run("another version", func(t *testing.T) { requireRefused(t, cfg, crashed, rec, tagged) })
}

// TestResumeRefusesSplitResultDirectory commits a mid-application boundary in
// the field set of the build that kept the training result apart — the
// finished training result in its own field, the harness result and wave
// counter restarting at zero — and requires both entry points to refuse it by
// its missing format tag rather than read the application waves as a run
// still in training.
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
	}
	cfg := durablePipelineConfig()
	crashed, rec := crashedMidApplication(t, cfg)
	h := rec.cp.Harness
	requireRefused(t, cfg, crashed, rec, untaggedPayload(t, oldPipelineCheckpoint{
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
	}))
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

// TestResumeRefusesTwoBaselineDirectory commits a mid-application boundary in
// the field set of the build that kept two baselines per tracker, step state
// and measure accumulators in maps keyed by step, and requires both entry
// points to refuse the directory by its missing format tag.
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
	}
	order := []workflow.StepID{"src", "agg"} // miniWorkload's topological order
	oldTrackers := func(ts []metric.PersistedTracker) []oldTracker {
		out := make([]oldTracker, len(ts))
		for i, tr := range ts {
			out[i] = oldTracker{elemListOf(tr.Baseline), elemListOf(tr.Baseline), tr.Accumulated, tr.Current, tr.HasBaseline}
		}
		return out
	}
	// The execution counts the build kept are not recorded any more: 0
	// stands in, as the refusal happens on the format tag.
	oldInstanceOf := func(p engine.InstancePersist, wave int) oldInstance {
		out := oldInstance{Wave: wave, Impacts: p.Impacts, Steps: map[workflow.StepID]oldStep{}}
		for pos, sp := range p.Steps {
			out.Steps[order[pos]] = oldStep{sp.LastExecWave >= 0, sp.LastExecWave, 0, oldTrackers(sp.Impacts), oldTrackers(sp.Errors)}
		}
		return out
	}
	cfg := durablePipelineConfig()
	crashed, rec := crashedMidApplication(t, cfg)
	h := rec.cp.Harness
	requireRefused(t, cfg, crashed, rec, untaggedPayload(t, oldPipelineCheckpoint{
		TrainWaves: cfg.TrainWaves,
		ApplyWaves: cfg.ApplyWaves,
		Harness: &oldHarnessCheckpoint{
			Result:   h.Result,
			Live:     oldInstanceOf(h.Live, h.Result.Waves),
			Ref:      oldInstanceOf(h.Ref, h.Result.Waves),
			Measures: map[workflow.StepID]elemMeasure{"agg": elemMeasures(h.Measures)[0]},
		},
	}))
}

// TestResumeRefusesStateBaselineDirectory commits a mid-application boundary
// in the field set of the build before tracker baselines became Columns —
// each baseline and each report step's fresh output an element list — and
// requires both entry points to refuse the directory by its missing format
// tag.
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
	}
	oldTrackers := func(ts []metric.PersistedTracker) []oldTracker {
		out := make([]oldTracker, len(ts))
		for i, tr := range ts {
			out[i] = oldTracker{elemListOf(tr.Baseline), tr.Accumulated, tr.Current, tr.HasBaseline}
		}
		return out
	}
	// The execution counts the build kept are not recorded any more: 0
	// stands in, as the refusal happens on the format tag.
	oldInstanceOf := func(p engine.InstancePersist, wave int) oldInstance {
		out := oldInstance{Wave: wave, Impacts: p.Impacts}
		for _, sp := range p.Steps {
			out.Steps = append(out.Steps, oldStep{sp.LastExecWave, 0, oldTrackers(sp.Impacts), oldTrackers(sp.Errors)})
		}
		return out
	}
	cfg := durablePipelineConfig()
	crashed, rec := crashedMidApplication(t, cfg)
	h := rec.cp.Harness
	requireRefused(t, cfg, crashed, rec, untaggedPayload(t, oldPipelineCheckpoint{
		TrainWaves: cfg.TrainWaves,
		ApplyWaves: cfg.ApplyWaves,
		Policy:     rec.cp.Policy,
		Harness: &oldHarnessCheckpoint{
			Result:   h.Result,
			Live:     oldInstanceOf(h.Live, h.Result.Waves),
			Ref:      oldInstanceOf(h.Ref, h.Result.Waves),
			Measures: elemMeasures(h.Measures),
		},
	}))
}

// TestResumeRefusesStateMeasureDirectory commits a mid-application boundary
// in the field set of the build before report steps' fresh outputs became
// Columns — tracker baselines as now, each fresh output an element list — and
// requires both entry points to refuse the directory by its missing format
// tag.
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
	}
	cfg := durablePipelineConfig()
	crashed, rec := crashedMidApplication(t, cfg)
	h := rec.cp.Harness
	if len(h.Measures) == 0 {
		t.Fatal("the crashed run measured no report step: the payload would hold no fresh output")
	}
	requireRefused(t, cfg, crashed, rec, untaggedPayload(t, oldPipelineCheckpoint{
		TrainWaves: cfg.TrainWaves,
		ApplyWaves: cfg.ApplyWaves,
		Policy:     rec.cp.Policy,
		Harness: &oldHarnessCheckpoint{
			Result:   h.Result,
			Live:     h.Live,
			Ref:      h.Ref,
			Measures: elemMeasures(h.Measures),
		},
	}))
}

// TestResumeDirectoryWithoutPolicyName commits a mid-application boundary in
// the field set of the build before policies were recorded. Such a directory
// carries no format tag, so it is refused under the session and under any
// other policy alike, rather than read as a smartflux run.
func TestResumeDirectoryWithoutPolicyName(t *testing.T) {
	type oldPipelineCheckpoint struct {
		TrainWaves, ApplyWaves int
		Harness                *engine.HarnessCheckpoint
	}
	cfg := durablePipelineConfig()
	crashed, rec := crashedMidApplication(t, cfg)
	requireRefused(t, cfg, crashed, rec,
		untaggedPayload(t, oldPipelineCheckpoint{cfg.TrainWaves, cfg.ApplyWaves, rec.cp.Harness}),
		engine.NewSeq(3))
}

// FuzzRestoreCheckpoint feeds arbitrary bytes through the checkpoint decoder
// and, when they decode, into a fresh mini-workload harness through
// Harness.RestoreCheckpoint. Nothing may panic or spin, and a refused restore
// must leave the harness as one never restored into. The seeds are the last
// committed payloads — each tagged with this build's format — of a
// mini-workload run killed mid-training, in its first application wave (every
// training wave committed, none after) and mid-application, and of a
// random-policy run killed mid-application.
func FuzzRestoreCheckpoint(f *testing.F) {
	cfg := durablePipelineConfig()
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
	random.Policy = testPolicies["random"]()
	seed(random, cfg.TrainWaves+20)

	const waves = 3
	syncRun := func(t testing.TB, h *engine.Harness) *engine.Result {
		res, err := h.Run(waves, engine.Sync{})
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
	clean := syncRun(f, newHarness(f))
	f.Fuzz(func(t *testing.T, payload []byte) {
		cp, err := decodePipelineCheckpoint(payload)
		if err != nil || cp.Harness == nil {
			return
		}
		h := newHarness(t)
		if _, err := h.RestoreCheckpoint(cp.Harness); err != nil {
			equalResult(t, "run after a refused restore", clean, syncRun(t, h))
		}
	})
}
