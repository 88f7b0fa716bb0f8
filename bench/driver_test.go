package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"smartflux/internal/core"
	"smartflux/internal/kvstore"
	"smartflux/internal/workflow"
)

// TestLockstepMatchesPipeline guards the oracle: the benchmark re-implements
// Harness.measure outside the engine and drives the live instance on its own,
// so on a 40+60-wave run its decision matrix and its re-derived Measured and
// violation series must be bit-identical to core.RunPipeline's for the same
// seed.
func TestLockstepMatchesPipeline(t *testing.T) {
	const train, apply, seed = 40, 60, 5
	for _, name := range []string{"lrb-mem", "aqhi-durable"} {
		t.Run(name, func(t *testing.T) {
			w := workloadByName(t, name)
			w.train, w.backend = train, backendNone

			r, err := setUp(w, seed, t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer r.close()
			p := r.runPhase(apply, apply, nil)
			if p.failed != 0 {
				t.Fatalf("%d waves failed: %v", p.failed, p.firstErr)
			}

			build, report := w.build(seed)
			want, err := core.RunPipeline(build, []workflow.StepID{report}, core.PipelineConfig{
				TrainWaves:  train,
				ApplyWaves:  apply,
				Session:     sessionConfig(seed, w.parallelism),
				Parallelism: w.parallelism,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(p.executed, want.Apply.LiveExecuted) {
				t.Errorf("decision matrix differs from RunPipeline's Apply.LiveExecuted")
			}
			rep := want.Apply.Reports[report]
			if len(p.measured) != len(rep.Measured) {
				t.Fatalf("measured %d waves, pipeline %d", len(p.measured), len(rep.Measured))
			}
			for i := range rep.Measured {
				if math.Float64bits(p.measured[i]) != math.Float64bits(rep.Measured[i]) {
					t.Errorf("wave %d: Measured %v, pipeline %v", i, p.measured[i], rep.Measured[i])
				}
			}
			if !reflect.DeepEqual(p.violations, rep.Violations) {
				t.Errorf("violation series differs from the pipeline's")
			}
			if got, want := p.execSavings(), want.Apply.SavingsRatio(); got != want {
				t.Errorf("exec savings %v, pipeline %v", got, want)
			}
		})
	}
}

func workloadByName(t *testing.T, name string) workload {
	t.Helper()
	for _, w := range workloadTable {
		if w.name == name {
			return w
		}
	}
	t.Fatalf("no workload %q", name)
	return workload{}
}

// TestBracketingAttribution checks observer bracketing on a fake backend: an
// observer that sleeps, subscribed between the brackets, must have its time
// attributed to the bracketed layer; one subscribed after the closing bracket
// must not; and the layer self times must add up to the wave exactly.
func TestBracketingAttribution(t *testing.T) {
	const nap = 5 * time.Millisecond
	const puts = 3
	store := kvstore.New()
	if _, err := store.CreateTable("early", kvstore.TableOptions{}); err != nil {
		t.Fatal(err)
	}
	sleeper := kvstore.ObserverFunc(func(kvstore.Mutation) { time.Sleep(nap) })
	attach := func(o kvstore.Observer) { // what Manager.Register and Client.Mirror do
		for _, name := range store.TableNames() {
			tbl, _ := store.Table(name)
			tbl.Subscribe(o)
		}
		store.OnTableCreate(func(tbl *kvstore.Table) { tbl.Subscribe(o) })
	}

	tr := newTracer(workload{backend: backendDurable}, 2)
	tr.steps = []workflow.StepID{"writer"}
	tr.subscribeBefore(store)
	attach(sleeper) // the bracketed layer
	tr.subscribeAfter(store)
	attach(sleeper) // a later subscriber: not the layer's time

	proc := &timedProc{tr: tr, step: 0, inner: workflow.ProcessorFunc(func(ctx *workflow.Context) error {
		// One batch into a table that exists and one into a table created
		// now, which gets its observers through the creation hooks.
		for _, name := range []string{"early", "late"} {
			tbl, err := ctx.Table(name)
			if err != nil {
				return err
			}
			batch := kvstore.NewBatch()
			for i := 0; i < puts; i++ {
				batch.PutFloat("row", string(rune('a'+i)), float64(i))
			}
			if err := tbl.Apply(batch); err != nil {
				return err
			}
		}
		return nil
	})}

	wave := 0
	for !tracedWave(wave) {
		wave++
	}
	tr.beginWave(wave)
	if err := proc.Process(&workflow.Context{Wave: wave, Store: store}); err != nil {
		t.Fatal(err)
	}
	tr.endEngine()
	tr.endWave()

	lt := tr.layers()
	slept := int64(2 * puts * nap) // per subscriber: two batches of `puts` mutations
	if lt.batches != 2 {
		t.Errorf("%d bracketed batches, want 2 (one per table)", lt.batches)
	}
	if got := tr.mutations.Load(); got != 2*puts {
		t.Errorf("counted %d mutations, want %d", got, 2*puts)
	}
	if lt.bracket < slept {
		t.Errorf("bracketed layer got %v, its observer slept %v", time.Duration(lt.bracket), time.Duration(slept))
	}
	if rest := lt.wave - lt.bracket; rest < slept {
		t.Errorf("only %v of the wave lies outside the bracket; the later observer slept %v there",
			time.Duration(rest), time.Duration(slept))
	}
	if lt.proc < slept {
		t.Errorf("proc self time %v does not hold the later observer's %v", time.Duration(lt.proc), time.Duration(slept))
	}
	sum := lt.waveSelf + lt.engineSelf + lt.proc + lt.decide + lt.bracket + lt.checkpoint + lt.commit
	if sum != lt.wave {
		t.Errorf("layer self times sum to %d ns, the wave span is %d ns", sum, lt.wave)
	}

	// Outside a traced wave nothing is recorded.
	spans := len(tr.spans)
	if err := proc.Process(&workflow.Context{Store: store}); err != nil {
		t.Fatal(err)
	}
	if len(tr.spans) != spans || tr.mutations.Load() != 2*puts {
		t.Errorf("a run outside the traced region was recorded")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles = %v, %v; want 1, 3", q1, q3)
	}
}

func TestUnionLength(t *testing.T) {
	spans := []span{{start: 0, dur: 10}, {start: 5, dur: 10}, {start: 30, dur: 5}, {start: 31, dur: 2}}
	if got := unionLength(spans); got != 20 {
		t.Errorf("unionLength = %d, want 20", got)
	}
}
