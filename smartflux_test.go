package smartflux_test

import (
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"smartflux"
	"smartflux/workloads"
)

// buildPublic constructs a small pipeline purely through the public API.
func buildPublic() (*smartflux.Workflow, *smartflux.Store, error) {
	store := smartflux.NewStore()
	wf := smartflux.NewWorkflow("public")
	steps := []*smartflux.Step{
		{
			ID:      "src",
			Source:  true,
			Outputs: []smartflux.Container{{Table: "raw"}},
			Proc: smartflux.ProcessorFunc(func(ctx *smartflux.Context) error {
				t, err := ctx.Table("raw")
				if err != nil {
					return err
				}
				batch := smartflux.NewBatch()
				for i := 0; i < 5; i++ {
					v := 30 + 5*math.Sin(float64(ctx.Wave)/3+float64(i))
					batch.PutFloat("s"+strconv.Itoa(i), "v", v)
				}
				return t.Apply(batch)
			}),
		},
		{
			ID:      "sum",
			Inputs:  []smartflux.Container{{Table: "raw"}},
			Outputs: []smartflux.Container{{Table: "agg"}},
			QoD:     smartflux.QoD{MaxError: 0.05, Mode: smartflux.ModeAccumulate},
			Proc: smartflux.ProcessorFunc(func(ctx *smartflux.Context) error {
				raw, err := ctx.Table("raw")
				if err != nil {
					return err
				}
				out, err := ctx.Table("agg")
				if err != nil {
					return err
				}
				var sum float64
				for _, c := range raw.Scan(smartflux.ScanOptions{}) {
					if v, err := smartflux.DecodeFloat(c.Version.Value); err == nil {
						sum += v
					}
				}
				return out.PutFloat("all", "sum", sum)
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

func TestPublicAPIPipeline(t *testing.T) {
	res, err := smartflux.RunPipeline(buildPublic, nil, smartflux.PipelineConfig{
		TrainWaves: 80,
		ApplyWaves: 60,
		Session:    smartflux.SessionConfig{Seed: 1, Thresholds: []float64{0.2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Apply.TotalLiveExecutions() >= res.Apply.TotalSyncExecutions() {
		t.Error("no savings through the public API")
	}
	if _, ok := res.Apply.Reports["sum"]; !ok {
		t.Error("missing report for gated step")
	}
}

// TestOpenObserverReportsWriteError: a decision trace written to a full
// device makes the observer's close function fail, so a run cannot lose its
// trace silently.
func TestOpenObserverReportsWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full:", err)
	}
	observer, closeObs, err := smartflux.OpenObserver("", "/dev/full", "", new(strings.Builder))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := smartflux.RunPipeline(buildPublic, nil, smartflux.PipelineConfig{
		TrainWaves: 20,
		ApplyWaves: 5,
		Session:    smartflux.SessionConfig{Seed: 1, Thresholds: []float64{0.2}},
		Obs:        observer,
	}); err != nil {
		t.Fatal(err)
	}
	if err := closeObs(); err == nil || !strings.HasPrefix(err.Error(), "trace-out: ") {
		t.Errorf("close = %v, want the trace-out write error", err)
	}
}

func TestPublicAPIPolicies(t *testing.T) {
	harness, err := smartflux.NewHarness(buildPublic, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []smartflux.Decider{
		smartflux.SyncPolicy(),
		smartflux.SeqPolicy(2),
		smartflux.RandomPolicy(0.5, 1),
		smartflux.OraclePolicy(),
	} {
		if policy.Name() == "" {
			t.Error("empty policy name")
		}
	}
	res, err := harness.Run(10, smartflux.SeqPolicy(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Waves != 10 {
		t.Errorf("waves = %d", res.Waves)
	}
}

func TestPublicAPIStore(t *testing.T) {
	store := smartflux.NewStore()
	table, err := store.CreateTable("t", smartflux.TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := table.PutFloat("r", "c", 2.5); err != nil {
		t.Fatal(err)
	}
	v, ok := table.GetFloat("r", "c")
	if !ok || v != 2.5 {
		t.Errorf("GetFloat = %v, %v", v, ok)
	}
	raw := smartflux.EncodeFloat(7)
	back, err := smartflux.DecodeFloat(raw)
	if err != nil || back != 7 {
		t.Errorf("codec roundtrip = %v, %v", back, err)
	}
}

func TestPublicAPIMetricTracker(t *testing.T) {
	tracker := smartflux.NewMetricTracker(func() smartflux.Metric {
		return &countingMetric{}
	}, smartflux.ModeAccumulate)
	tracker.ObserveColumns(smartflux.Columns{Keys: []string{"a"}, Vals: []float64{1}})
	got := tracker.ObserveColumns(smartflux.Columns{Keys: []string{"a"}, Vals: []float64{2}})
	if got != 1 {
		t.Errorf("custom metric value = %v, want 1 (one modified element)", got)
	}
}

// countingMetric counts modified elements.
type countingMetric struct{ n int }

func (c *countingMetric) Update(cur, prev float64)                { c.n++ }
func (c *countingMetric) Compute(smartflux.MetricContext) float64 { return float64(c.n) }
func (c *countingMetric) Reset()                                  { c.n = 0 }

func TestPublicAPIParseHelpers(t *testing.T) {
	c, err := smartflux.ParseContainer("t/prefix")
	if err != nil || c.Table != "t" || c.ColumnPrefix != "prefix" {
		t.Errorf("ParseContainer = %+v, %v", c, err)
	}
}

func TestWorkloadBuilders(t *testing.T) {
	builders := map[string]smartflux.BuildFunc{
		"lrb":      workloads.LinearRoad(workloads.LinearRoadConfig{Seed: 1, Vehicles: 200}),
		"aqhi":     workloads.AirQuality(workloads.AirQualityConfig{Seed: 1}),
		"firerisk": workloads.FireRisk(workloads.FireRiskConfig{Seed: 1}),
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			wf, store, err := build()
			if err != nil {
				t.Fatal(err)
			}
			if wf == nil || store == nil {
				t.Fatal("builder must return a workflow and store")
			}
			if _, err := wf.Order(); err != nil {
				t.Errorf("builder must return a finalized workflow: %v", err)
			}
			inst, err := smartflux.NewInstance(wf, store)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := inst.RunWave(smartflux.SyncPolicy()); err != nil {
				t.Fatal(err)
			}
		})
	}
	if workloads.AirQualityRiskClass(2) != "low" {
		t.Error("risk class passthrough")
	}
}

func TestPublicAPIMetricDSL(t *testing.T) {
	factory, err := smartflux.ParseMetricDSL("sum(absdelta) * m / (baselinesum * n)")
	if err != nil {
		t.Fatal(err)
	}
	tracker := smartflux.NewMetricTracker(factory, smartflux.ModeCancellation)
	tracker.ObserveColumns(smartflux.Columns{Keys: []string{"a", "b"}, Vals: []float64{10, 10}})
	got := tracker.ObserveColumns(smartflux.Columns{Keys: []string{"a", "b"}, Vals: []float64{12, 10}})
	want := 2.0 * 1 / (20 * 2)
	if got != want {
		t.Errorf("DSL metric through facade = %v, want %v", got, want)
	}
	if _, err := smartflux.ParseMetricDSL("(("); err == nil {
		t.Error("bad expression must fail")
	}
}

func TestPublicAPIDriftDetector(t *testing.T) {
	d := smartflux.NewDriftDetector(10, 0.3)
	for i := 0; i < 10; i++ {
		d.Observe(false)
	}
	if !d.Drifted() {
		t.Error("all-disagreement window must signal drift")
	}
}
