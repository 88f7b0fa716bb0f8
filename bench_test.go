package smartflux_test

// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5), one per experiment, plus the §5.3 overhead microbenchmarks. The
// figure benchmarks run the full experiment pipeline at a reduced scale
// (Scale 0.12) so `go test -bench=.` completes in minutes; run
// cmd/experiments with -scale 1 for paper-length reproductions.

import (
	"io"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"smartflux"
	"smartflux/internal/core"
	"smartflux/internal/engine"
	"smartflux/internal/experiments"
	"smartflux/internal/kvstore"
	"smartflux/internal/lrb"
	"smartflux/internal/metric"
	"smartflux/internal/ml"
	"smartflux/internal/obs"
	"smartflux/internal/workflow"
	"smartflux/workloads"
)

// benchRunner shares pipeline runs across figure benchmarks within one
// bench binary invocation.
var benchRunner = experiments.NewRunner(experiments.Config{Seed: 42, Scale: 0.12})

// BenchmarkFig03FireRiskGenerators regenerates Figure 3 (diurnal sensor
// series of the motivational fire-risk scenario).
func BenchmarkFig03FireRiskGenerators(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig3(experiments.Config{Seed: 42})
		if len(res.Hours) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkClassifierSelection regenerates the §3.2 classifier-comparison
// table (ROC areas of the six algorithms).
func BenchmarkClassifierSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.ClassifierSelection(benchRunner, 0.20)
		if err != nil {
			b.Fatal(err)
		}
		res.Render(io.Discard)
	}
}

// BenchmarkFig07Correlation regenerates the Figure 7 correlation panels.
func BenchmarkFig07Correlation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(benchRunner, 0.20)
		if err != nil {
			b.Fatal(err)
		}
		res.Render(io.Discard)
	}
}

// BenchmarkFig08LearningCurves regenerates the Figure 8 learning curves.
func BenchmarkFig08LearningCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(benchRunner)
		if err != nil {
			b.Fatal(err)
		}
		res.Render(io.Discard)
	}
}

// BenchmarkFig09PredictionError regenerates the Figure 9 measured/predicted
// error series.
func BenchmarkFig09PredictionError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(benchRunner)
		if err != nil {
			b.Fatal(err)
		}
		res.Render(io.Discard)
	}
}

// BenchmarkFig10Confidence regenerates the Figure 10 confidence curves.
func BenchmarkFig10Confidence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(benchRunner)
		if err != nil {
			b.Fatal(err)
		}
		res.Render(io.Discard)
	}
}

// BenchmarkFig11PolicyComparison regenerates the Figure 11 policy
// comparison (SmartFlux vs random/seq2/seq3/seq5).
func BenchmarkFig11PolicyComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11(benchRunner)
		if err != nil {
			b.Fatal(err)
		}
		res.Render(io.Discard)
	}
}

// BenchmarkFig12ResourceSavings regenerates the Figure 12 execution/savings
// tables.
func BenchmarkFig12ResourceSavings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12(benchRunner)
		if err != nil {
			b.Fatal(err)
		}
		res.Render(io.Discard)
	}
}

// --- §5.3 overhead microbenchmarks -------------------------------------

// BenchmarkOverheadImpactComputation measures one input-impact evaluation
// over a 1000-element container state (the per-wave Monitoring cost).
func BenchmarkOverheadImpactComputation(b *testing.B) {
	keys := make([]string, 1000)
	for i := range keys {
		keys[i] = "r" + strconv.Itoa(i) + "/v"
	}
	slices.Sort(keys)
	// Two key slices, as two scans of a table between which a cell was
	// added or deleted return: the tracker merge-joins them.
	state := metric.Columns{Keys: keys, Vals: make([]float64, len(keys))}
	baseline := metric.Columns{Keys: slices.Clone(keys), Vals: make([]float64, len(keys))}
	rng := rand.New(rand.NewSource(1))
	for i := range keys {
		baseline.Vals[i] = rng.Float64() * 100
		state.Vals[i] = baseline.Vals[i] + rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := metric.Evaluate(metric.NewRelativeError, state, baseline); v < 0 {
			b.Fatal("negative metric")
		}
	}
}

// impactLog is a knowledge base of n waves over labels gated steps, in which
// each step's label fires when its own impact exceeds 5.
func impactLog(seed int64, n, labels int) core.Dataset {
	rng := rand.New(rand.NewSource(seed))
	var data core.Dataset
	for i := 0; i < n; i++ {
		x := make([]float64, labels)
		y := make([]int, labels)
		for l := range x {
			x[l] = rng.Float64() * 10
			if x[l] > 5 {
				y[l] = 1
			}
		}
		data.Append(x, y)
	}
	return data
}

// BenchmarkOverheadModelBuild measures NewPredictor over a 300-wave,
// two-label log: two unweighted default forests and no test phase. It is a
// size check on the paper's "model build < 1 s" (§5.3), not what a pipeline's
// set-up pays; BenchmarkSessionTrainLRB measures that.
func BenchmarkOverheadModelBuild(b *testing.B) {
	data := impactLog(2, 300, 2)
	factory := func() ml.Classifier { return ml.NewForest(ml.ForestConfig{Seed: 1}) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewPredictor(factory, data, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverheadPrediction measures what one wave asks of the classifier:
// one decision per gated step of a 6-step workflow, as Linear Road has.
func BenchmarkOverheadPrediction(b *testing.B) {
	const labels = 6
	factory := func() ml.Classifier { return ml.NewForest(ml.ForestConfig{Seed: 1}) }
	predictor, err := core.NewPredictor(factory, impactLog(3, 300, labels), nil)
	if err != nil {
		b.Fatal(err)
	}
	impacts := []float64{4.2, 6.1, 0.3, 9.7, 5.0, 2.8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for l := 0; l < labels; l++ {
			if _, err := predictor.Decide(l, impacts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkOverheadKVStorePut measures raw store write throughput.
func BenchmarkOverheadKVStorePut(b *testing.B) {
	store := kvstore.New()
	table, err := store.CreateTable("t", kvstore.TableOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := table.PutFloat("r"+strconv.Itoa(i%1000), "c", float64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// lrbReportsTable builds a table shaped like an LRB wave's reports — 1 200
// vehicle rows × 3 float columns — and returns it with its row and column
// keys and the function that writes one wave's pooled batch to it. Every
// cell is at MaxVersions.
func lrbReportsTable(b *testing.B) (table *kvstore.Table, rows, cols []string, apply func(v float64)) {
	table, err := kvstore.New().CreateTable("t", kvstore.TableOptions{})
	if err != nil {
		b.Fatal(err)
	}
	rows = make([]string, 1200)
	for i := range rows {
		rows[i] = "v" + strconv.Itoa(i)
	}
	cols = []string{"xway", "pos", "speed"}
	apply = func(v float64) {
		batch := kvstore.GetBatch().Grow(len(rows) * len(cols))
		for _, row := range rows {
			for _, col := range cols {
				batch.PutFloat(row, col, v)
			}
		}
		if err := table.Apply(batch); err != nil {
			b.Fatal(err)
		}
		batch.Release()
	}
	for i := 0; i < kvstore.DefaultMaxVersions; i++ {
		apply(float64(i))
	}
	return table, rows, cols, apply
}

// BenchmarkOverheadKVStoreApply measures a step's write: one 3 600-cell
// float batch (an LRB feeder wave's size) built in a pooled batch and
// applied to a table whose cells are already at MaxVersions.
func BenchmarkOverheadKVStoreApply(b *testing.B) {
	_, _, _, apply := lrbReportsTable(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apply(float64(i))
	}
}

// BenchmarkOverheadKVStorePutFloatRows measures the same write as
// BenchmarkOverheadKVStoreApply in its grid form: one 1 200 × 3
// PutFloatRows, through the write plan the batches left, on a table never
// read (unread) and on one an ι snapshot has read once (snapshotted), whose
// float array every write then keeps current, as the engine's tables. It
// reports the time per cell as ns/cell.
func BenchmarkOverheadKVStorePutFloatRows(b *testing.B) {
	for _, snapshotted := range []bool{false, true} {
		name := "unread"
		if snapshotted {
			name = "snapshotted"
		}
		b.Run(name, func(b *testing.B) {
			table, rows, cols, _ := lrbReportsTable(b)
			if snapshotted {
				table.ScanColumns(kvstore.ScanOptions{}, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := float64(i)
				err := table.PutFloatRows(rows, cols, func(vals []float64) {
					for k := range vals {
						vals[k] = v
					}
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)*len(cols)), "ns/cell")
		})
	}
}

// BenchmarkOverheadKVStoreScanColumns measures the ι/ε snapshot the engine
// takes of an LRB wave's reports after a wave rewrote every cell: 3 600
// float cells copied out of the table's float array, and a column-prefix
// selection of 1 200 gathered through its slot list.
func BenchmarkOverheadKVStoreScanColumns(b *testing.B) {
	table, rows, cols, apply := lrbReportsTable(b)
	for _, tc := range []struct {
		name string
		opts kvstore.ScanOptions
		want int
	}{
		{"table", kvstore.ScanOptions{}, len(rows) * len(cols)},
		{"prefix", kvstore.ScanOptions{ColumnPrefix: "speed"}, len(rows)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			apply(-1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got, _ := table.ScanColumns(tc.opts, nil); got.Len() != tc.want {
					b.Fatal("short scan")
				}
			}
		})
	}
}

// BenchmarkOverheadKVStoreScanFloatRows measures a step's projected read of
// an LRB wave's reports after a wave rewrote every cell: all three columns
// of the 1 200 rows, as 2a reads them, and one, as 2a reads its previous
// speeds.
func BenchmarkOverheadKVStoreScanFloatRows(b *testing.B) {
	table, rows, cols, apply := lrbReportsTable(b)
	for _, proj := range [][]string{cols, cols[2:]} {
		b.Run(strconv.Itoa(len(proj))+"col", func(b *testing.B) {
			apply(-1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				table.ScanFloatRows(proj, func(keys []string, vals []float64, _ []bool) {
					if len(keys) != len(rows) || len(vals) != len(rows)*len(proj) {
						b.Fatal("short scan")
					}
				})
			}
		})
	}
}

// BenchmarkOverheadKVStoreChurn measures what a changing key set costs the
// in-memory store: each op replaces 0, 1, 12 or 120 of an LRB-shaped table's
// 1 200 rows — deletes a row's three cells and names a new row in its place,
// as vehicles leave and enter — then runs one 1 200 × 3 PutFloatRows, one
// whole-table ScanColumns into a reused buffer, as the engine's snapshot
// cache reads, and one 3-column ScanFloatRows.
func BenchmarkOverheadKVStoreChurn(b *testing.B) {
	for _, replaced := range []int{0, 1, 12, 120} {
		b.Run("replace="+strconv.Itoa(replaced), func(b *testing.B) {
			table, rows, cols, _ := lrbReportsTable(b)
			next := len(rows)
			var vals []float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < replaced; k++ {
					j := (i*replaced + k) % len(rows)
					for _, col := range cols {
						if err := table.Delete(rows[j], col); err != nil {
							b.Fatal(err)
						}
					}
					rows[j] = "v" + strconv.Itoa(next)
					next++
				}
				v := float64(i)
				err := table.PutFloatRows(rows, cols, func(vals []float64) {
					for k := range vals {
						vals[k] = v
					}
				})
				if err != nil {
					b.Fatal(err)
				}
				var snap metric.Columns
				if snap, _ = table.ScanColumns(kvstore.ScanOptions{}, vals); snap.Len() != len(rows)*len(cols) {
					b.Fatal("short scan")
				}
				vals = snap.Vals
				table.ScanFloatRows(cols, func(keys []string, vals []float64, _ []bool) {
					if len(keys) != len(rows) || len(vals) != len(rows)*len(cols) {
						b.Fatal("short scan")
					}
				})
			}
		})
	}
}

// BenchmarkOverheadKVStoreGet measures point reads: one op reads every cell
// of the LRB-shaped table, 3 600 lookups, as bytes (Get, which hands out a
// fresh copy of a value of at most 8 bytes) and as floats (GetFloat, which
// reads the stored bits and allocates nothing).
func BenchmarkOverheadKVStoreGet(b *testing.B) {
	table, rows, cols, _ := lrbReportsTable(b)
	for _, tc := range []struct {
		name string
		get  func(row, col string) bool
	}{
		{"Get", func(row, col string) bool { _, ok := table.Get(row, col); return ok }},
		{"GetFloat", func(row, col string) bool { _, ok := table.GetFloat(row, col); return ok }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, row := range rows {
					for _, col := range cols {
						if !tc.get(row, col) {
							b.Fatal("missing cell")
						}
					}
				}
			}
		})
	}
}

// BenchmarkOverheadKVStoreScan measures a full container snapshot (the
// read path of every impact computation).
func BenchmarkOverheadKVStoreScan(b *testing.B) {
	store := kvstore.New()
	table, err := store.CreateTable("t", kvstore.TableOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := table.PutFloat("r"+strconv.Itoa(i), "c", float64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got, _ := table.ScanColumns(kvstore.ScanOptions{}, nil); got.Len() != 1000 {
			b.Fatal("short scan")
		}
	}
}

// BenchmarkOverheadAQHIWave measures one fully synchronous AQHI wave
// through the engine (execution + impact/error computation).
func BenchmarkOverheadAQHIWave(b *testing.B) {
	build := workloads.AirQuality(workloads.AirQualityConfig{Seed: 42})
	wf, store, err := build()
	if err != nil {
		b.Fatal(err)
	}
	inst, err := engine.NewInstance(wf, store, engine.InstanceConfig{TrainingMode: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.RunWave(engine.Sync{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverheadAQHIWaveObserved is BenchmarkOverheadAQHIWave with a
// metrics registry attached — the delta against the plain benchmark is the
// instrumentation overhead (acceptance bound: < 5%).
func BenchmarkOverheadAQHIWaveObserved(b *testing.B) {
	build := workloads.AirQuality(workloads.AirQualityConfig{Seed: 42})
	wf, store, err := build()
	if err != nil {
		b.Fatal(err)
	}
	inst, err := engine.NewInstance(wf, store, engine.InstanceConfig{TrainingMode: true})
	if err != nil {
		b.Fatal(err)
	}
	inst.Instrument(obs.New(obs.NewRegistry()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.RunWave(engine.Sync{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverheadAQHIWaveTraced adds full decision tracing into an
// in-memory ring on top of the metrics registry.
func BenchmarkOverheadAQHIWaveTraced(b *testing.B) {
	build := workloads.AirQuality(workloads.AirQualityConfig{Seed: 42})
	wf, store, err := build()
	if err != nil {
		b.Fatal(err)
	}
	inst, err := engine.NewInstance(wf, store, engine.InstanceConfig{TrainingMode: true})
	if err != nil {
		b.Fatal(err)
	}
	inst.Instrument(obs.New(obs.NewRegistry(), obs.NewRingSink(1024)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.RunWave(engine.Sync{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverheadAQHIWaveSpans adds causal span emission into an
// in-memory span ring on top of metrics and decision tracing: the full
// observability stack. The delta against BenchmarkOverheadAQHIWaveTraced is
// the cost of span creation, attribute stamping and ring emission.
func BenchmarkOverheadAQHIWaveSpans(b *testing.B) {
	build := workloads.AirQuality(workloads.AirQualityConfig{Seed: 42})
	wf, store, err := build()
	if err != nil {
		b.Fatal(err)
	}
	inst, err := engine.NewInstance(wf, store, engine.InstanceConfig{TrainingMode: true})
	if err != nil {
		b.Fatal(err)
	}
	inst.Instrument(obs.New(obs.NewRegistry(), obs.NewRingSink(1024)).
		WithSpanSinks(obs.NewSpanRing(4096)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.RunWave(engine.Sync{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSpansDisabledOverheadGuard asserts that the span hooks do no work when
// spans are disabled: an observer with metrics but no span sinks (Spanning()
// false) must allocate no more per wave than a completely uninstrumented
// instance. The regression this exists to catch — building span IDs or
// attributes without a sink — allocates; counting allocations over the same
// waves of two identical instances sees it without timing anything.
func TestSpansDisabledOverheadGuard(t *testing.T) {
	allocsPerWave := func(instrument bool) float64 {
		build := workloads.AirQuality(workloads.AirQualityConfig{Seed: 42})
		wf, store, err := build()
		if err != nil {
			t.Fatal(err)
		}
		inst, err := engine.NewInstance(wf, store, engine.InstanceConfig{TrainingMode: true, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if instrument {
			// Metrics only, no span sinks: every span hook resolves to a
			// nil *Span and must do no further work.
			inst.Instrument(obs.New(obs.NewRegistry()))
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := inst.RunWave(engine.Sync{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	base, spansOff := allocsPerWave(false), allocsPerWave(true)
	t.Logf("allocations per wave: uninstrumented %.0f, spans-disabled observer %.0f", base, spansOff)
	if base <= 0 {
		t.Fatalf("degenerate baseline of %.0f allocations per wave", base)
	}
	// AllocsPerRun counts the whole process and rounds the mean down, so a
	// burst of runtime allocations can move either figure by one.
	if spansOff > base+1 {
		t.Errorf("spans-disabled observer allocates %.0f per wave against %.0f uninstrumented; "+
			"a span hook is doing work without checking Spanning()", spansOff, base)
	}
}

// BenchmarkOverheadLRBWave measures one fully synchronous Linear Road wave.
func BenchmarkOverheadLRBWave(b *testing.B) {
	build := workloads.LinearRoad(workloads.LinearRoadConfig{Seed: 42})
	wf, store, err := build()
	if err != nil {
		b.Fatal(err)
	}
	inst, err := engine.NewInstance(wf, store, engine.InstanceConfig{TrainingMode: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.RunWave(engine.Sync{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLRBWaveParallelism times one synchronous Linear Road wave after 50
// warm-up waves, at Parallelism 1 and 2 (lrb-mem-sync's setting), with
// BenchmarkOverheadLRBWave's instance set-up. The wave is one chain with a
// three-way fork, so /2 should cost no more than /1: the coordinator runs
// the chain itself and hands only the fork's overlapping steps to goroutines.
func BenchmarkLRBWaveParallelism(b *testing.B) {
	for _, par := range []int{1, 2} {
		b.Run(strconv.Itoa(par), func(b *testing.B) {
			wf, store, err := workloads.LinearRoad(workloads.LinearRoadConfig{Seed: 42})()
			if err != nil {
				b.Fatal(err)
			}
			inst, err := engine.NewInstance(wf, store, engine.InstanceConfig{TrainingMode: true, Parallelism: par})
			if err != nil {
				b.Fatal(err)
			}
			for w := 0; w < 50; w++ {
				if _, err := inst.RunWave(engine.Sync{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := inst.RunWave(engine.Sync{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLRBSteps times each Linear Road processor at steady state, after
// 50 synchronous waves at Parallelism 1, and the feeder's write alone, in
// both forms: one 3 600-op Apply of a wave's reports (feeder-apply) and one
// 1 200 × 3 PutFloatRows of the same cells (feeder-grid). Processors run
// outside the engine, on the instance's store, so no ι observation is timed;
// the feeder advances its simulator once per run.
func BenchmarkLRBSteps(b *testing.B) {
	wf, store, err := workloads.LinearRoad(workloads.LinearRoadConfig{Seed: 1})()
	if err != nil {
		b.Fatal(err)
	}
	inst, err := engine.NewInstance(wf, store, engine.InstanceConfig{TrainingMode: true, Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	const waves = 50
	for w := 0; w < waves; w++ {
		if _, err := inst.RunWave(engine.Sync{}); err != nil {
			b.Fatal(err)
		}
	}
	order, err := wf.Order()
	if err != nil {
		b.Fatal(err)
	}
	ctx := &workflow.Context{Wave: waves, Store: store}
	for _, id := range order {
		step, err := wf.Step(id)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(id), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := step.Proc.Process(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	reports, err := store.Table(lrb.TableReports)
	if err != nil {
		b.Fatal(err)
	}
	batch := kvstore.NewBatch()
	var rows, cols []string
	var vals []float64
	for _, c := range reports.Scan(kvstore.ScanOptions{}) {
		batch.Put(c.Row, c.Column, c.Version.Value)
		if len(rows) == 0 || rows[len(rows)-1] != c.Row {
			rows = append(rows, c.Row)
		}
		if len(rows) == 1 {
			cols = append(cols, c.Column)
		}
		v, _ := c.FloatValue()
		vals = append(vals, v)
	}
	b.Run("feeder-apply", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := reports.Apply(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	if len(rows)*len(cols) != len(vals) {
		b.Fatalf("reports are not a grid: %d rows, %d columns, %d cells", len(rows), len(cols), len(vals))
	}
	b.Run("feeder-grid", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := reports.PutFloatRows(rows, cols, func(dst []float64) { copy(dst, vals) }); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHarnessTrainingLRB measures the set-up cost the pipeline benchmark
// is dominated by: 120 synchronous Linear Road training waves through
// Harness.Run, whose reference and live instances run at once, at Parallelism
// 1 and 2. Building the harness is not timed.
func BenchmarkHarnessTrainingLRB(b *testing.B) {
	build := workloads.LinearRoad(workloads.LinearRoadConfig{Seed: 1, MaxError: 0.10})
	for _, par := range []int{1, 2} {
		b.Run("par"+strconv.Itoa(par), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h, err := smartflux.NewHarnessWithConfig(build, []smartflux.StepID{workloads.LinearRoadClassify},
					smartflux.HarnessConfig{Parallelism: par})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := h.Run(120, smartflux.SyncPolicy()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSessionTrainLRB measures the model build a Linear Road pipeline's
// set-up pays: Session.Train — every gated step's final fit and its 10
// test-phase folds — over the seed-1 120-wave knowledge base, with the
// pipeline benchmark's session settings, at Parallelism 1 and 2.
func BenchmarkSessionTrainLRB(b *testing.B) {
	benchSessionTrain(b, workloads.LinearRoad(workloads.LinearRoadConfig{Seed: 1, MaxError: 0.10}),
		workloads.LinearRoadClassify, 120)
}

// BenchmarkSessionTrainAQHI is BenchmarkSessionTrainLRB over the 336-wave
// knowledge base of the pipeline benchmark's AQHI workload (GridSize 24,
// seed 1): more rows per fit, and five gated steps.
func BenchmarkSessionTrainAQHI(b *testing.B) {
	benchSessionTrain(b, workloads.AirQuality(workloads.AirQualityConfig{GridSize: 24, Seed: 1, MaxError: 0.10}),
		workloads.AirQualityIndex, 336)
}

// benchSessionTrain times Session.Train over the knowledge base of waves
// synchronous waves of build. The knowledge base is built once and each
// session is filled outside the timer.
func benchSessionTrain(b *testing.B, build smartflux.BuildFunc, report smartflux.StepID, waves int) {
	h, err := smartflux.NewHarnessWithConfig(build, []smartflux.StepID{report}, smartflux.HarnessConfig{Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	train, err := h.Run(waves, smartflux.SyncPolicy())
	if err != nil {
		b.Fatal(err)
	}
	for _, par := range []int{1, 2} {
		b.Run("par"+strconv.Itoa(par), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				session := smartflux.NewSession(smartflux.SessionConfig{
					Seed: 8, Thresholds: []float64{0.15}, PositiveWeight: 14, Parallelism: par})
				for w := range train.RefImpacts {
					session.ObserveTrainingWave(train.RefImpacts[w], train.RefLabels[w])
				}
				b.StartTimer()
				if _, err := session.Train(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPublicPipeline measures the end-to-end public-API lifecycle on
// the quickstart-sized workload (sanity benchmark for library adopters).
func BenchmarkPublicPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := smartflux.RunPipeline(buildPublic, nil, smartflux.PipelineConfig{
			TrainWaves: 40,
			ApplyWaves: 20,
			Session:    smartflux.SessionConfig{Seed: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Apply == nil {
			b.Fatal("no apply phase")
		}
	}
}

// benchFanout builds a one-source, width-way fan-out workflow whose gated
// steps each burn real CPU, the shape the wave scheduler's pool exists for;
// the RunWave serial/parallel benchmarks run it at Parallelism 1 and 4.
func benchFanout(width, work int) smartflux.BuildFunc {
	return func() (*smartflux.Workflow, *smartflux.Store, error) {
		store := smartflux.NewStore()
		wf := smartflux.NewWorkflow("fanout")
		src := &smartflux.Step{
			ID:      "src",
			Source:  true,
			Outputs: []smartflux.Container{{Table: "raw"}},
			Proc: smartflux.ProcessorFunc(func(ctx *smartflux.Context) error {
				t, err := ctx.Table("raw")
				if err != nil {
					return err
				}
				batch := smartflux.NewBatch()
				for i := 0; i < width; i++ {
					batch.PutFloat("k"+strconv.Itoa(i), "v", float64(ctx.Wave+i))
				}
				return t.Apply(batch)
			}),
		}
		if err := wf.AddStep(src); err != nil {
			return nil, nil, err
		}
		for i := 0; i < width; i++ {
			key := "k" + strconv.Itoa(i)
			out := "out" + strconv.Itoa(i)
			step := &smartflux.Step{
				ID:      smartflux.StepID("work" + strconv.Itoa(i)),
				Inputs:  []smartflux.Container{{Table: "raw", ColumnPrefix: key}},
				Outputs: []smartflux.Container{{Table: out}},
				QoD:     smartflux.QoD{MaxError: 0.05, Mode: smartflux.ModeAccumulate},
				Proc: smartflux.ProcessorFunc(func(ctx *smartflux.Context) error {
					raw, err := ctx.Table("raw")
					if err != nil {
						return err
					}
					dst, err := ctx.Table(out)
					if err != nil {
						return err
					}
					v, _ := raw.GetFloat(key, "v")
					acc := v
					for n := 0; n < work; n++ {
						acc = acc*1.0000001 + float64(n%7)
					}
					return dst.PutFloat("all", "x", acc)
				}),
			}
			if err := wf.AddStep(step); err != nil {
				return nil, nil, err
			}
		}
		if err := wf.Finalize(); err != nil {
			return nil, nil, err
		}
		return wf, store, nil
	}
}

// benchRunWave measures one wave of the fan-out workflow at a parallelism.
func benchRunWave(b *testing.B, par int) {
	wf, store, err := benchFanout(8, 200_000)()
	if err != nil {
		b.Fatal(err)
	}
	inst, err := engine.NewInstance(wf, store, engine.InstanceConfig{Parallelism: par})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.RunWave(engine.Sync{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunWaveSerial and BenchmarkRunWaveParallel compare the sequential
// wave loop against the worker-pool scheduler on an 8-way fan-out. The
// parallel variant pins 4 workers so the scheduler path is exercised (and
// its overhead visible) regardless of GOMAXPROCS; on a multi-core box it
// approaches width× faster, and both produce bit-identical results (see
// TestHarnessParallelismDeterminism).
func BenchmarkRunWaveSerial(b *testing.B)   { benchRunWave(b, 1) }
func BenchmarkRunWaveParallel(b *testing.B) { benchRunWave(b, 4) }

// BenchmarkForestFit measures fitting the paper's 100-tree Random Forest on
// 400 rows of two features (an XOR of two thresholds), the multi-feature fit
// only the §3.2 classifier comparison makes.
func BenchmarkForestFit(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	n := 400
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		a, c := rng.Float64(), rng.Float64()
		x[i] = []float64{a, c}
		if (a > 0.5) != (c > 0.5) {
			y[i] = 1
		}
	}
	d := ml.Dataset{X: x, Y: y}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := ml.NewForest(ml.ForestConfig{Trees: 100, Seed: 7})
		if err := f.Fit(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestFitOwnImpact measures the fit each gated step's plan makes
// in a Linear Road Session.Train: 120 training waves of the step's own
// impact, a rare execute label, PositiveWeight 14 and the default 100 trees,
// fitted on the calling goroutine.
func BenchmarkForestFitOwnImpact(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	x := make([][]float64, 120)
	y := make([]int, len(x))
	for i := range x {
		x[i] = []float64{rng.ExpFloat64()}
		if x[i][0] > 2 {
			y[i] = 1
		}
	}
	d := ml.Dataset{X: x, Y: y}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ml.NewForest(ml.ForestConfig{Seed: 8, PositiveWeight: 14}).Fit(d); err != nil {
			b.Fatal(err)
		}
	}
}
