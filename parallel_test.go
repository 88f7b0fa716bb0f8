package smartflux_test

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"sync/atomic"
	"testing"

	"smartflux"
	"smartflux/internal/engine"
	"smartflux/workloads"
)

// paperWorkloads returns the two §5.1 evaluation workloads with their report
// steps, at small wave counts suitable for determinism checks.
func paperWorkloads() map[string]struct {
	build  smartflux.BuildFunc
	report smartflux.StepID
} {
	return map[string]struct {
		build  smartflux.BuildFunc
		report smartflux.StepID
	}{
		"lrb": {
			build:  workloads.LinearRoad(workloads.LinearRoadConfig{Seed: 42, MaxError: 0.10}),
			report: workloads.LinearRoadClassify,
		},
		"aqhi": {
			build:  workloads.AirQuality(workloads.AirQualityConfig{Seed: 42, MaxError: 0.10}),
			report: workloads.AirQualityIndex,
		},
	}
}

// TestPipelineParallelismDeterminism runs the full train→test→apply pipeline
// of the AQHI workload at two training fan-outs (per-label training and
// concurrent CV folds engaged at 4) and compares the final resource and
// quality numbers.
func TestPipelineParallelismDeterminism(t *testing.T) {
	w := paperWorkloads()["aqhi"]
	run := func(par int) *smartflux.PipelineResult {
		res, err := smartflux.RunPipeline(w.build, []smartflux.StepID{w.report}, smartflux.PipelineConfig{
			TrainWaves:  60,
			ApplyWaves:  40,
			Session:     smartflux.SessionConfig{Seed: 49, Thresholds: []float64{0.15}, PositiveWeight: 14},
			Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run(1), run(4)
	if !reflect.DeepEqual(seq.Test, par.Test) {
		t.Fatalf("test reports diverged:\nseq: %+v\npar: %+v", seq.Test, par.Test)
	}
	if seq.Apply.TotalLiveExecutions() != par.Apply.TotalLiveExecutions() {
		t.Fatalf("live executions diverged: %d vs %d",
			seq.Apply.TotalLiveExecutions(), par.Apply.TotalLiveExecutions())
	}
	if !reflect.DeepEqual(seq.Apply.LiveExecuted, par.Apply.LiveExecuted) {
		t.Fatal("execution matrices diverged")
	}
	if !reflect.DeepEqual(seq.Apply.RefLabels, par.Apply.RefLabels) {
		t.Fatal("reference labels diverged")
	}
}

// nopCommitter commits nothing. A harness with a committer runs each wave's
// live instance after its reference instance, never beside it.
type nopCommitter struct{}

func (nopCommitter) CommitWave(*engine.HarnessCheckpoint) error { return nil }

// TestHarnessOverlapMatchesOrdered runs the three bundled workloads through a
// session's training and application phases, once with the two instances of
// every wave overlapped and once ordered by a no-op committer. Both runs must
// give the same encoded result and the same dumps of both stores, logical
// timestamps included: overlapping the instances changes when they run, never
// what they compute.
func TestHarnessOverlapMatchesOrdered(t *testing.T) {
	builds := map[string]smartflux.BuildFunc{
		"lrb":      workloads.LinearRoad(workloads.LinearRoadConfig{Seed: 42, MaxError: 0.10}),
		"aqhi":     workloads.AirQuality(workloads.AirQualityConfig{Seed: 42, MaxError: 0.10}),
		"firerisk": workloads.FireRisk(workloads.FireRiskConfig{Seed: 42, MaxError: 0.10}),
	}
	type outcome struct {
		result string
		dumps  [2]string
	}
	run := func(t *testing.T, build smartflux.BuildFunc, committer engine.WaveCommitter) outcome {
		var stores []*smartflux.Store
		res, err := smartflux.RunPipeline(func() (*smartflux.Workflow, *smartflux.Store, error) {
			wf, store, err := build()
			stores = append(stores, store)
			return wf, store, err
		}, nil, smartflux.PipelineConfig{
			TrainWaves: 30,
			ApplyWaves: 15,
			Session:    smartflux.SessionConfig{Seed: 49, Thresholds: []float64{0.15}, PositiveWeight: 14},
			Resilience: smartflux.HarnessConfig{Committer: committer},
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode([]*smartflux.Result{res.Train, res.Apply}); err != nil {
			t.Fatal(err)
		}
		out := outcome{result: buf.String()}
		for i, s := range stores {
			out.dumps[i] = string(s.Dump())
		}
		return out
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			overlapped, ordered := run(t, build, nil), run(t, build, nopCommitter{})
			if overlapped.result != ordered.result {
				t.Error("the overlapped run's result differs from the ordered run's")
			}
			for i, which := range []string{"live", "reference"} {
				if overlapped.dumps[i] != ordered.dumps[i] {
					t.Errorf("the overlapped run's %s store differs from the ordered run's", which)
				}
			}
		})
	}
}

// TestInstanceRunsOneStepAtATime wraps every processor of one instance in an
// in-flight counter and requires that no two ever run at once, over 50
// synchronous waves of an 8-way fan-out of CPU-bound steps and of fire-risk.
func TestInstanceRunsOneStepAtATime(t *testing.T) {
	builds := map[string]smartflux.BuildFunc{
		"fanout":   benchFanout(8, 20_000),
		"firerisk": workloads.FireRisk(workloads.FireRiskConfig{Seed: 42, MaxError: 0.10}),
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			wf, store, err := build()
			if err != nil {
				t.Fatal(err)
			}
			order, err := wf.Order()
			if err != nil {
				t.Fatal(err)
			}
			var inFlight, most atomic.Int64
			for _, id := range order {
				step, err := wf.Step(id)
				if err != nil {
					t.Fatal(err)
				}
				inner := step.Proc
				step.Proc = smartflux.ProcessorFunc(func(ctx *smartflux.Context) error {
					n := inFlight.Add(1)
					defer inFlight.Add(-1)
					for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
					}
					return inner.Process(ctx)
				})
			}
			inst, err := smartflux.NewInstanceWithConfig(wf, store, smartflux.InstanceConfig{})
			if err != nil {
				t.Fatal(err)
			}
			for w := 0; w < 50; w++ {
				if _, err := inst.RunWave(smartflux.SyncPolicy()); err != nil {
					t.Fatal(err)
				}
			}
			if got := most.Load(); got != 1 {
				t.Fatalf("at most %d processors ran at once, want 1", got)
			}
		})
	}
}
