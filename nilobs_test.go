package smartflux_test

import (
	"testing"

	"smartflux"
	"smartflux/workloads"
)

// TestNilObserverPipeline is the regression guard for the nil-safety
// invariant every instrumentation hook since PR 1 promises: the full
// quickstart-sized pipeline — engine waves, store ops, session training
// (sequential and parallel), drift detection — must run with no observer at
// all, and with a metrics-only observer (no span sinks, so Spanning() is
// false), without panicking or emitting anything. `make race` runs this
// under the race detector, which also catches unsynchronized span state on
// the goroutines of a wave's two overlapped instances.
func TestNilObserverPipeline(t *testing.T) {
	metricsOnly := smartflux.NewRunObserver(smartflux.NewMetricsRegistry())
	cases := []struct {
		name        string
		obs         *smartflux.RunObserver
		parallelism int
	}{
		{"nil-observer-sequential", nil, 0},
		{"nil-observer-parallel", nil, 4},
		{"metrics-only-no-spans", metricsOnly, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := workloads.AirQuality(workloads.AirQualityConfig{Seed: 42})
			res, err := smartflux.RunPipeline(build, nil, smartflux.PipelineConfig{
				TrainWaves:  40,
				ApplyWaves:  20,
				Session:     smartflux.SessionConfig{Seed: 1},
				Obs:         tc.obs,
				Parallelism: tc.parallelism,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Apply == nil || res.Apply.Waves != 20 {
				t.Fatalf("apply phase incomplete: %+v", res.Apply)
			}
		})
	}
	if metricsOnly.Spanning() {
		t.Error("observer without span sinks reports Spanning() = true")
	}
}
