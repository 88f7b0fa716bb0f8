// Quickstart: a minimal three-step SmartFlux pipeline.
//
// A sensor feed writes temperatures, an aggregation step averages them, and
// an alert step classifies the average. The aggregation and alert steps
// tolerate a 10% output error, so once the model is trained SmartFlux skips
// their execution whenever the input changed too little to matter.
//
// Run with:
//
//	go run ./examples/quickstart
//
// Pass -trace-out decisions.jsonl to log every triggering decision (one JSON
// line per wave and gated step), -span-out spans.jsonl to record the causal
// span tree for offline analysis with `go run ./cmd/sftrace`, and
// -obs-addr 127.0.0.1:8080 to watch live metrics on /metrics while it runs.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"

	"smartflux"
)

const (
	tableRaw    = "raw"
	tableAvg    = "avg"
	tableAlert  = "alert"
	sensorCount = 50
	trainWaves  = 400
	applyWaves  = 150
)

// build constructs one instance of the pipeline. The harness calls it twice
// (live + synchronous reference), so the generator must be deterministic.
func build() (*smartflux.Workflow, *smartflux.Store, error) {
	store := smartflux.NewStore()
	rng := rand.New(rand.NewSource(1))

	wf := smartflux.NewWorkflow("quickstart")
	steps := []*smartflux.Step{
		{
			ID:      "ingest",
			Source:  true,
			Outputs: []smartflux.Container{{Table: tableRaw}},
			Proc: smartflux.ProcessorFunc(func(ctx *smartflux.Context) error {
				t, err := ctx.Table(tableRaw)
				if err != nil {
					return err
				}
				batch := smartflux.NewBatch()
				for i := 0; i < sensorCount; i++ {
					// Diurnal cycle + a heat burst every ~70 waves.
					v := 20 + 4*math.Sin(2*math.Pi*float64(ctx.Wave)/48)
					if ctx.Wave%70 > 55 {
						v += 8
					}
					batch.PutFloat("s"+strconv.Itoa(i), "temp", v+rng.NormFloat64())
				}
				return t.Apply(batch)
			}),
		},
		{
			ID:      "aggregate",
			Inputs:  []smartflux.Container{{Table: tableRaw}},
			Outputs: []smartflux.Container{{Table: tableAvg}},
			QoD:     smartflux.QoD{MaxError: 0.1, Mode: smartflux.ModeAccumulate},
			Proc: smartflux.ProcessorFunc(func(ctx *smartflux.Context) error {
				raw, err := ctx.Table(tableRaw)
				if err != nil {
					return err
				}
				out, err := ctx.Table(tableAvg)
				if err != nil {
					return err
				}
				var sum float64
				var n int
				for _, c := range raw.Scan(smartflux.ScanOptions{}) {
					if v, err := smartflux.DecodeFloat(c.Version.Value); err == nil {
						sum += v
						n++
					}
				}
				if n == 0 {
					return nil
				}
				return out.PutFloat("region", "avg", sum/float64(n))
			}),
		},
		{
			ID:      "alert",
			Inputs:  []smartflux.Container{{Table: tableAvg}},
			Outputs: []smartflux.Container{{Table: tableAlert}},
			QoD:     smartflux.QoD{MaxError: 0.1, Mode: smartflux.ModeAccumulate},
			Proc: smartflux.ProcessorFunc(func(ctx *smartflux.Context) error {
				avg, err := ctx.Table(tableAvg)
				if err != nil {
					return err
				}
				out, err := ctx.Table(tableAlert)
				if err != nil {
					return err
				}
				v, _ := avg.GetFloat("region", "avg")
				// Alert score scales linearly with the regional
				// average above a 15 °C floor.
				level := 5 + 2*(v-15)
				return out.PutFloat("region", "level", level)
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

func main() {
	obsAddr := flag.String("obs-addr", "", "serve /metrics, /trace/tail and /trace/spans on this address")
	traceOut := flag.String("trace-out", "", "write decision-trace JSON lines to this file")
	spanOut := flag.String("span-out", "", "append causal spans (plus decision events) as JSON lines to this file, readable by sftrace")
	flag.Parse()

	observer, closeObs, err := smartflux.OpenObserver(*obsAddr, *traceOut, *spanOut, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}

	res, err := smartflux.RunPipeline(build, nil, smartflux.PipelineConfig{
		TrainWaves: trainWaves,
		ApplyWaves: applyWaves,
		Session: smartflux.SessionConfig{
			Seed:           7,
			Thresholds:     []float64{0.15},
			PositiveWeight: 12,
		},
		Obs: observer,
	})
	if err != nil {
		log.Fatal(err)
	}

	macro := res.Test.Macro()
	fmt.Printf("test phase (10-fold CV): accuracy %.2f, recall %.2f\n",
		macro.Accuracy, macro.Recall)
	fmt.Printf("application phase: %d/%d gated executions (%.0f%% saved)\n",
		res.Apply.TotalLiveExecutions(), res.Apply.TotalSyncExecutions(),
		res.Apply.SavingsRatio()*100)
	steps := make([]smartflux.StepID, 0, len(res.Apply.Reports))
	for step := range res.Apply.Reports {
		steps = append(steps, step)
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i] < steps[j] })
	for _, step := range steps {
		report := res.Apply.Reports[step]
		conf := report.Confidence()
		fmt.Printf("step %s: %d bound violations in %d waves (confidence %.1f%%)\n",
			step, report.ViolationCount(), applyWaves, conf[len(conf)-1]*100)
	}
	if observer != nil {
		snap := observer.Metrics().Snapshot()
		fmt.Printf("decisions: %d exec, %d skip; p95 decision latency %.1fµs\n",
			snap.Counters[`smartflux_engine_decisions_total{verdict="exec"}`],
			snap.Counters[`smartflux_engine_decisions_total{verdict="skip"}`],
			snap.Histograms["smartflux_engine_decision_latency_seconds"].P95*1e6)
	}
	// A trace that could not be written in full fails the run.
	if err := closeObs(); err != nil {
		log.Fatal(err)
	}
}
