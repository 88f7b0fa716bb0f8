package smartflux_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"regexp"
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

// TestHarnessParallelismDeterminism runs both paper workloads through the
// harness at Parallelism 1 and 4 under a skipping policy and requires the
// full Result — execution matrices, measured/predicted error series, labels
// and impacts — to be byte-identical. This is the PR's headline contract:
// the worker pool only changes wall-clock time, never a number.
func TestHarnessParallelismDeterminism(t *testing.T) {
	for name, w := range paperWorkloads() {
		t.Run(name, func(t *testing.T) {
			run := func(par int) *smartflux.Result {
				h, err := smartflux.NewHarnessWithConfig(w.build,
					[]smartflux.StepID{w.report},
					smartflux.HarnessConfig{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				res, err := h.Run(25, smartflux.SeqPolicy(3))
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			if !reflect.DeepEqual(run(1), run(4)) {
				t.Fatal("harness results diverged between Parallelism 1 and 4")
			}
		})
	}
}

// TestPipelineParallelismDeterminism runs the full train→test→apply pipeline
// of the AQHI workload at both parallelism settings (per-wave workers,
// per-label training and concurrent CV folds all engaged at 4) and compares
// the final resource and quality numbers.
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
// session's training and application phases at Parallelism 1 and 4, once with
// the two instances of every wave overlapped and once ordered by a no-op
// committer. Both runs must give the same encoded result and the same dumps
// of both stores: overlapping the instances changes when they run, never what
// they compute. At Parallelism 1 the dumps include the logical timestamps;
// above 1 concurrent steps of one instance draw them from its store clock in
// scheduling order, so two ordered runs differ there too and the dumps are
// compared without them.
func TestHarnessOverlapMatchesOrdered(t *testing.T) {
	stamp := regexp.MustCompile(` @\d+ = `)
	builds := map[string]smartflux.BuildFunc{
		"lrb":      workloads.LinearRoad(workloads.LinearRoadConfig{Seed: 42, MaxError: 0.10}),
		"aqhi":     workloads.AirQuality(workloads.AirQualityConfig{Seed: 42, MaxError: 0.10}),
		"firerisk": workloads.FireRisk(workloads.FireRiskConfig{Seed: 42, MaxError: 0.10}),
	}
	type outcome struct {
		result string
		dumps  [2]string
	}
	run := func(t *testing.T, build smartflux.BuildFunc, par int, committer engine.WaveCommitter) outcome {
		var stores []*smartflux.Store
		res, err := smartflux.RunPipeline(func() (*smartflux.Workflow, *smartflux.Store, error) {
			wf, store, err := build()
			stores = append(stores, store)
			return wf, store, err
		}, nil, smartflux.PipelineConfig{
			TrainWaves:  30,
			ApplyWaves:  15,
			Session:     smartflux.SessionConfig{Seed: 49, Thresholds: []float64{0.15}, PositiveWeight: 14},
			Parallelism: par,
			Resilience:  smartflux.HarnessConfig{Committer: committer},
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
			if par > 1 {
				out.dumps[i] = stamp.ReplaceAllString(out.dumps[i], " = ")
			}
		}
		return out
	}
	for name, build := range builds {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/par%d", name, par), func(t *testing.T) {
				overlapped, ordered := run(t, build, par, nil), run(t, build, par, nopCommitter{})
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
}

// TestInstanceConfigParallelism checks the public InstanceConfig plumbing.
func TestInstanceConfigParallelism(t *testing.T) {
	wf, store, err := buildPublic()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := smartflux.NewInstanceWithConfig(wf, store, smartflux.InstanceConfig{Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Parallelism() != 3 {
		t.Fatalf("Parallelism = %d, want 3", inst.Parallelism())
	}
	if _, err := inst.RunWave(smartflux.SyncPolicy()); err != nil {
		t.Fatal(err)
	}
}
