package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"strconv"
	"testing"

	"smartflux/internal/engine"
	"smartflux/internal/kvstore"
	"smartflux/internal/lrb"
	"smartflux/internal/metric"
	"smartflux/internal/obs"
	"smartflux/internal/workflow"
)

// miniWorkload is a 2-step pipeline with a drifting signal for end-to-end
// pipeline tests.
func miniWorkload() engine.BuildFunc {
	return func() (*workflow.Workflow, *kvstore.Store, error) {
		store := kvstore.New()
		wf := workflow.New("mini")
		source := &workflow.Step{
			ID:      "src",
			Source:  true,
			Outputs: []workflow.Container{{Table: "raw"}},
			Proc: workflow.ProcessorFunc(func(ctx *workflow.Context) error {
				t, err := ctx.Table("raw")
				if err != nil {
					return err
				}
				batch := kvstore.NewBatch()
				for i := 0; i < 6; i++ {
					v := 40 + 8*math.Sin(float64(ctx.Wave)/4+float64(i))
					batch.PutFloat("r"+strconv.Itoa(i), "v", v)
				}
				return t.Apply(batch)
			}),
		}
		agg := &workflow.Step{
			ID:      "agg",
			Inputs:  []workflow.Container{{Table: "raw"}},
			Outputs: []workflow.Container{{Table: "out"}},
			QoD: workflow.QoD{
				MaxError:   0.05,
				ImpactFunc: metric.FuncAbsoluteImpact,
				ErrorFunc:  metric.FuncRelativeError,
				Mode:       metric.ModeAccumulate,
			},
			Proc: workflow.ProcessorFunc(func(ctx *workflow.Context) error {
				raw, err := ctx.Table("raw")
				if err != nil {
					return err
				}
				out, err := ctx.Table("out")
				if err != nil {
					return err
				}
				var sum float64
				var n int
				for _, c := range raw.Scan(kvstore.ScanOptions{}) {
					if v, ok := c.FloatValue(); ok {
						sum += v
						n++
					}
				}
				if n == 0 {
					return nil
				}
				return out.PutFloat("all", "mean", sum/float64(n))
			}),
		}
		for _, s := range []*workflow.Step{source, agg} {
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

func TestRunPipelineEndToEnd(t *testing.T) {
	res, err := RunPipeline(miniWorkload(), nil, PipelineConfig{
		TrainWaves: 120,
		ApplyWaves: 80,
		Session:    Config{Seed: 3, Thresholds: []float64{0.2}, PositiveWeight: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Train.Waves != 120 || res.Apply.Waves != 80 {
		t.Errorf("wave counts: train %d apply %d", res.Train.Waves, res.Apply.Waves)
	}
	// Training phase must be fully synchronous.
	if res.Train.TotalLiveExecutions() != res.Train.TotalSyncExecutions() {
		t.Error("training phase must execute synchronously")
	}
	// Application phase must skip something on a smooth signal.
	if res.Apply.TotalLiveExecutions() >= res.Apply.TotalSyncExecutions() {
		t.Error("application phase saved nothing")
	}
	if res.Session.Phase() != PhaseApplication {
		t.Errorf("session phase = %v", res.Session.Phase())
	}
	report := res.Apply.Reports["agg"]
	if report == nil {
		t.Fatal("missing report for the gated step")
	}
	conf := report.Confidence()
	if conf[len(conf)-1] < 0.8 {
		t.Errorf("pipeline confidence %.3f on an easy signal", conf[len(conf)-1])
	}
}

func TestRunPipelineRequiresTraining(t *testing.T) {
	if _, err := RunPipeline(miniWorkload(), nil, PipelineConfig{ApplyWaves: 10}); err == nil {
		t.Error("TrainWaves=0 must fail")
	}
}

func TestRunPipelineNoApplyPhase(t *testing.T) {
	res, err := RunPipeline(miniWorkload(), nil, PipelineConfig{
		TrainWaves: 60,
		Session:    Config{Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Apply != nil {
		t.Error("ApplyWaves=0 must skip the application phase")
	}
}

func TestRunPipelineDeterminism(t *testing.T) {
	run := func() *PipelineResult {
		res, err := RunPipeline(miniWorkload(), nil, PipelineConfig{
			TrainWaves: 80,
			ApplyWaves: 40,
			Session:    Config{Seed: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Apply.TotalLiveExecutions() != b.Apply.TotalLiveExecutions() {
		t.Error("pipeline must be deterministic for a fixed seed")
	}
	ra, rb := a.Apply.Reports["agg"], b.Apply.Reports["agg"]
	for i := range ra.Measured {
		if ra.Measured[i] != rb.Measured[i] {
			t.Fatal("measured series differ between identical runs")
		}
	}
}

// resultDigest hashes every series of a result — floats by their bits — in a
// fixed order.
func resultDigest(h hash.Hash, res *engine.Result) {
	u64 := func(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) }
	flag := func(b bool) {
		if b {
			u64(1)
		} else {
			u64(0)
		}
	}
	floats := func(s []float64) {
		u64(uint64(len(s)))
		for _, v := range s {
			u64(math.Float64bits(v))
		}
	}
	bools := func(s []bool) {
		u64(uint64(len(s)))
		for _, v := range s {
			flag(v)
		}
	}
	flag(res != nil)
	if res == nil {
		return
	}
	h.Write([]byte(res.Policy))
	u64(uint64(res.Waves))
	for _, id := range res.GatedSteps {
		h.Write([]byte(id))
	}
	for _, m := range [][][]bool{res.LiveExecuted, res.LiveDegraded} {
		u64(uint64(len(m)))
		for _, row := range m {
			bools(row)
		}
	}
	u64(uint64(len(res.RefLabels)))
	for _, row := range res.RefLabels {
		u64(uint64(len(row)))
		for _, v := range row {
			u64(uint64(v))
		}
	}
	for _, m := range [][][]float64{res.RefImpacts, res.RefSimErrors, res.LiveImpacts} {
		u64(uint64(len(m)))
		for _, row := range m {
			floats(row)
		}
	}
	ids := make([]string, 0, len(res.Reports))
	for id := range res.Reports {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, id := range ids {
		r := res.Reports[workflow.StepID(id)]
		h.Write([]byte(id))
		u64(math.Float64bits(r.MaxError))
		floats(r.Measured)
		floats(r.Predicted)
		floats(r.EndToEnd)
		bools(r.Violations)
		bools(r.Degraded)
	}
}

// TestRunPipelinePinnedDigest pins, series by series and float bit by float
// bit, what RunPipeline returned for this seed when a pipeline was still two
// harness results (commit 125776f): Train and Apply as views of one run are
// the same numbers.
func TestRunPipelinePinnedDigest(t *testing.T) {
	const want = "a65b6843c1de97f14ae94fd37c4662ed3ab11e8cdb214d9a2f7dc5629e9aaa38"
	res, err := RunPipeline(miniWorkload(), nil, durablePipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	resultDigest(h, res.Train)
	resultDigest(h, res.Apply)
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("Train+Apply digest = %s, want %s", got, want)
	}
}

// TestRunPipelinePinnedDigestMultiLabel pins a small Linear Road run, whose
// six gated steps make six labels: the Train and Apply series and the test
// report, float bit by float bit. TestRunPipelinePinnedDigest has one gated
// step, so only this pin reaches labels 1 and up.
func TestRunPipelinePinnedDigestMultiLabel(t *testing.T) {
	const want = "e50addfdaa3283d46f4078f24323e3c1685da8f4f70a4c30ff6641b2454e3403"
	build := lrb.Build(lrb.Config{Expressways: 1, Segments: 5, Vehicles: 300, QueriesPerWave: 4, Seed: 2})
	res, err := RunPipeline(build, []workflow.StepID{lrb.StepClassify}, PipelineConfig{
		TrainWaves: 80,
		ApplyWaves: 40,
		Session:    Config{Seed: 3, Thresholds: []float64{0.15}, PositiveWeight: 14},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Test.PerLabel); n != 6 {
		t.Fatalf("test report covers %d labels, want 6", n)
	}
	h := sha256.New()
	resultDigest(h, res.Train)
	resultDigest(h, res.Apply)
	for _, cv := range res.Test.PerLabel {
		for _, v := range []float64{cv.Accuracy, cv.Precision, cv.Recall, cv.F1, cv.AUC, float64(cv.Folds)} {
			_ = binary.Write(h, binary.LittleEndian, math.Float64bits(v))
		}
	}
	_ = binary.Write(h, binary.LittleEndian, res.Test.Accepted)
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("Train+Apply+TestReport digest = %s, want %s", got, want)
	}
}

// testPolicies builds the policies that do not learn, each afresh: Random and
// Oracle carry state.
var testPolicies = map[string]func() engine.Decider{
	"sync":   func() engine.Decider { return engine.Sync{} },
	"seq3":   func() engine.Decider { return engine.NewSeq(3) },
	"random": func() engine.Decider { return engine.NewRandom(0.5, 11) },
	"oracle": func() engine.Decider { return &engine.Oracle{} },
}

// TestRunPipelineUnderAPolicy: a policy that does not learn gets the same
// run. Its training waves are a synchronous warm-up and each view of the result
// names the decider of its own waves; there is no session and no test phase;
// the journaled run equals the plain one in every series; and with no warm-up
// the application phase is what a bare harness run under the policy is — the
// cold start that used to be the only way to run one.
func TestRunPipelineUnderAPolicy(t *testing.T) {
	for name, policy := range testPolicies {
		t.Run(name, func(t *testing.T) {
			ring := obs.NewRingSink(64)
			cfg := PipelineConfig{TrainWaves: 20, ApplyWaves: 40, Policy: policy(), Obs: obs.New(obs.NewRegistry(), ring)}
			res, err := RunPipeline(miniWorkload(), nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Train.Policy != "sync" || res.Apply.Policy != name {
				t.Errorf("views name policies %q and %q, want sync and %s", res.Train.Policy, res.Apply.Policy, name)
			}
			if res.Train.Waves != 20 || res.Apply.Waves != 40 || res.Train.TotalLiveExecutions() != res.Train.TotalSyncExecutions() {
				t.Errorf("%d+%d waves, %d of %d training executions", res.Train.Waves, res.Apply.Waves,
					res.Train.TotalLiveExecutions(), res.Train.TotalSyncExecutions())
			}
			if res.Session != nil || len(res.Test.PerLabel) != 0 {
				t.Errorf("a policy that does not learn left session %v and test report %+v", res.Session, res.Test)
			}
			// Decision events name the decider of their own wave.
			if ring.Len() != 60 {
				t.Fatalf("%d decision events, want one per wave of the one gated step", ring.Len())
			}
			for _, ev := range ring.Tail(ring.Len()) {
				want := "sync"
				if ev.Wave >= 20 {
					want = name
				}
				if ev.Policy != want {
					t.Fatalf("wave %d decided by %q, want %q", ev.Wave, ev.Policy, want)
				}
			}
			cfg.Policy, cfg.Obs = policy(), nil
			dur, info, err := RunPipelineDurable(miniWorkload(), nil, cfg, DurableOptions{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			equalPipelineResult(t, res, dur)
			if info.Durable.Commits != 60 {
				t.Errorf("commits = %d, want 60", info.Durable.Commits)
			}

			cold, err := RunPipeline(miniWorkload(), nil, PipelineConfig{ApplyWaves: 40, Policy: policy()})
			if err != nil {
				t.Fatal(err)
			}
			h, err := engine.NewHarness(miniWorkload(), nil)
			if err != nil {
				t.Fatal(err)
			}
			bare, err := h.Run(40, policy())
			if err != nil {
				t.Fatal(err)
			}
			equalResult(t, "cold start", bare, cold.Apply)
			if cold.Train.Waves != 0 || cold.Apply.Policy != name {
				t.Errorf("cold start: %d training waves, application policy %q", cold.Train.Waves, cold.Apply.Policy)
			}
		})
	}
	if _, err := RunPipeline(miniWorkload(), nil, PipelineConfig{TrainWaves: -1, ApplyWaves: 10, Policy: engine.Sync{}}); err == nil {
		t.Error("TrainWaves = -1 must fail")
	}
}
