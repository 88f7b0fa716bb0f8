package smartflux_test

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"
	"time"

	"smartflux"
	"smartflux/internal/fault"
	"smartflux/internal/kvstore"
	"smartflux/internal/kvstore/kvnet"
)

// The chaos suite drives the public pipeline and the kvnet transport through
// internal/fault and asserts the headline resilience contract (DESIGN.md
// §2): with enough retries, a faulty run is bit-identical to a fault-free
// one — same store contents (values, versions and logical timestamps), same
// ε/ι report — because injected failures happen strictly before any state
// changes and retried steps are deterministic. Run via `make chaos` (the
// TestChaos prefix is the filter).

const (
	chaosSensors    = 20
	chaosTrainWaves = 120
	chaosApplyWaves = 80
)

// chaosRig records what each build() call created so the test can inspect
// the final stores and injector tallies of both harness instances.
type chaosRig struct {
	stores []*smartflux.Store
	injs   []*fault.Injector
}

// chaosBuild is the quickstart pipeline (ingest → aggregate → alert) with
// the injector's op hook called before every container operation, under the
// store's op names. Each step performs its single write as its last
// operation, so a failed attempt never half-applies and a retried wave
// rewrites nothing.
func chaosBuild(p fault.Policy, rig *chaosRig) smartflux.BuildFunc {
	return func() (*smartflux.Workflow, *smartflux.Store, error) {
		store := smartflux.NewStore()
		inj := fault.New(p)
		hook := inj.OpHook()
		rig.stores = append(rig.stores, store)
		rig.injs = append(rig.injs, inj)
		// table resolves a table once the hook lets "create_table" through.
		table := func(ctx *smartflux.Context, name string) (*smartflux.Table, error) {
			if err := hook("create_table"); err != nil {
				return nil, err
			}
			return ctx.Table(name)
		}

		wf := smartflux.NewWorkflow("chaos")
		steps := []*smartflux.Step{
			{
				ID:      "ingest",
				Source:  true,
				Outputs: []smartflux.Container{{Table: "raw"}},
				Proc: smartflux.ProcessorFunc(func(ctx *smartflux.Context) error {
					t, err := table(ctx, "raw")
					if err != nil {
						return err
					}
					batch := smartflux.NewBatch()
					for i := 0; i < chaosSensors; i++ {
						// Diurnal cycle + heat bursts + per-sensor ripple;
						// a pure function of the wave so retries are
						// idempotent.
						v := 20 + 4*math.Sin(2*math.Pi*float64(ctx.Wave)/48)
						if ctx.Wave%70 > 55 {
							v += 8
						}
						v += 0.4 * math.Sin(1.7*float64(ctx.Wave)+0.9*float64(i))
						batch.PutFloat("s"+strconv.Itoa(i), "temp", v)
					}
					if err := hook("apply"); err != nil {
						return err
					}
					return t.Apply(batch)
				}),
			},
			{
				ID:      "aggregate",
				Inputs:  []smartflux.Container{{Table: "raw"}},
				Outputs: []smartflux.Container{{Table: "avg"}},
				QoD:     smartflux.QoD{MaxError: 0.1, Mode: smartflux.ModeAccumulate},
				Proc: smartflux.ProcessorFunc(func(ctx *smartflux.Context) error {
					raw, err := table(ctx, "raw")
					if err != nil {
						return err
					}
					if err := hook("scan"); err != nil {
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
					out, err := table(ctx, "avg")
					if err != nil {
						return err
					}
					if err := hook("put"); err != nil {
						return err
					}
					return out.PutFloat("region", "avg", sum/float64(n))
				}),
			},
			{
				ID:      "alert",
				Inputs:  []smartflux.Container{{Table: "avg"}},
				Outputs: []smartflux.Container{{Table: "alert"}},
				QoD:     smartflux.QoD{MaxError: 0.1, Mode: smartflux.ModeAccumulate},
				Proc: smartflux.ProcessorFunc(func(ctx *smartflux.Context) error {
					avg, err := table(ctx, "avg")
					if err != nil {
						return err
					}
					if err := hook("get"); err != nil {
						return err
					}
					v, _ := avg.GetFloat("region", "avg")
					out, err := table(ctx, "alert")
					if err != nil {
						return err
					}
					if err := hook("put"); err != nil {
						return err
					}
					return out.PutFloat("region", "level", 5+2*(v-15))
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
}

// equalFloats compares exactly (bitwise), the determinism contract's notion
// of equality.
func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// chaosObserver builds the suite's observer. When SMARTFLUX_CHAOS_SPAN_OUT
// names a file, causal spans and decision events are appended there as one
// JSONL stream so CI can publish the raw trace plus an sftrace report for
// the whole chaos suite; unset (the default) it adds no span sinks and the
// suite runs with span emission disabled, exactly as before.
func chaosObserver(t *testing.T, reg *smartflux.MetricsRegistry, sinks ...smartflux.TraceSink) *smartflux.RunObserver {
	t.Helper()
	path := os.Getenv("SMARTFLUX_CHAOS_SPAN_OUT")
	if path == "" {
		return smartflux.NewRunObserver(reg, sinks...)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("SMARTFLUX_CHAOS_SPAN_OUT: %v", err)
	}
	t.Cleanup(func() { _ = f.Close() })
	jsonl := smartflux.NewJSONLTraceSink(f)
	return smartflux.NewRunObserver(reg, append(sinks, smartflux.TraceSink(jsonl))...).WithSpanSinks(jsonl)
}

type chaosOutcome struct {
	rig       *chaosRig
	dumps     []string
	measured  []float64
	predicted []float64
	impacts   [][]float64
	retries   uint64
}

// runChaosPipeline runs the full train → test → apply lifecycle under the
// fault policy and summarizes everything the determinism contract covers.
func runChaosPipeline(t *testing.T, p fault.Policy) chaosOutcome {
	t.Helper()
	rig := &chaosRig{}
	reg := smartflux.NewMetricsRegistry()
	res, err := smartflux.RunPipeline(chaosBuild(p, rig), []smartflux.StepID{"alert"}, smartflux.PipelineConfig{
		TrainWaves: chaosTrainWaves,
		ApplyWaves: chaosApplyWaves,
		Session: smartflux.SessionConfig{
			Seed:           7,
			Thresholds:     []float64{0.15},
			PositiveWeight: 12,
		},
		Obs: chaosObserver(t, reg, smartflux.NewTraceRing(8)),
		Resilience: smartflux.HarnessConfig{
			StepRetries: 30,
			RetrySeed:   5,
		},
	})
	if err != nil {
		t.Fatalf("pipeline under policy %+v: %v", p, err)
	}
	if len(rig.stores) != 2 {
		t.Fatalf("expected 2 instance stores, got %d", len(rig.stores))
	}
	out := chaosOutcome{rig: rig}
	for _, s := range rig.stores {
		out.dumps = append(out.dumps, string(s.Dump()))
	}
	report := res.Apply.Reports["alert"]
	if report == nil {
		t.Fatal("no report for step alert")
	}
	out.measured = report.Measured
	out.predicted = report.Predicted
	out.impacts = res.Apply.RefImpacts
	out.retries = reg.Snapshot().Counters["smartflux_engine_step_retries_total"]
	return out
}

// TestChaosPipelineBitIdentical is the headline chaos assertion: the
// quickstart pipeline, run end-to-end through internal/fault at several
// error/disconnect/latency rates, produces bit-identical store contents and
// ε/ι reports to a fault-free run.
func TestChaosPipelineBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	clean := runChaosPipeline(t, fault.Policy{})
	if clean.retries != 0 {
		t.Errorf("fault-free run recorded %d step retries", clean.retries)
	}
	for _, p := range []fault.Policy{
		{Seed: 99, ErrorRate: 0.05, LatencyRate: 0.1, Latency: 200 * time.Microsecond},
		{Seed: 101, ErrorRate: 0.15, DisconnectRate: 0.05, LatencyRate: 0.25, Latency: 500 * time.Microsecond},
	} {
		p := p
		t.Run(fmt.Sprintf("err%.0f%%", (p.ErrorRate+p.DisconnectRate)*100), func(t *testing.T) {
			faulty := runChaosPipeline(t, p)
			var injected int
			for _, inj := range faulty.rig.injs {
				st := inj.Stats()
				injected += st.Errors + st.Disconnects
			}
			if injected == 0 {
				t.Fatalf("policy %+v injected nothing; the run proves nothing", p)
			}
			if faulty.retries == 0 {
				t.Error("faults were injected but no step retries were recorded")
			}
			for i := range clean.dumps {
				if clean.dumps[i] != faulty.dumps[i] {
					t.Errorf("store %d diverged under faults:\nclean:\n%s\nfaulty:\n%s",
						i, clean.dumps[i], faulty.dumps[i])
				}
			}
			if !equalFloats(clean.measured, faulty.measured) {
				t.Errorf("measured ε diverged:\nclean:  %v\nfaulty: %v", clean.measured, faulty.measured)
			}
			if !equalFloats(clean.predicted, faulty.predicted) {
				t.Errorf("predicted ε diverged:\nclean:  %v\nfaulty: %v", clean.predicted, faulty.predicted)
			}
			if len(clean.impacts) != len(faulty.impacts) {
				t.Fatalf("impact history length diverged: %d vs %d", len(clean.impacts), len(faulty.impacts))
			}
			for w := range clean.impacts {
				if !equalFloats(clean.impacts[w], faulty.impacts[w]) {
					t.Errorf("ι diverged at wave %d: %v vs %v", w, clean.impacts[w], faulty.impacts[w])
				}
			}
			t.Logf("injected %d faults, absorbed by %d step retries", injected, faulty.retries)
		})
	}
}

// TestChaosKvnetExactlyOnce replays one mutation history through a kvnet
// client whose transport suffers seeded disconnects and latency, and asserts
// the server's store ends bit-identical — versions and logical timestamps
// included — to a control store written directly. Retried mutations must be
// applied exactly once (request-ID dedup), reads must never corrupt state.
func TestChaosKvnetExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	serverStore := smartflux.NewStore()
	server := kvnet.NewServer(serverStore)
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = server.Close() }()

	inj := fault.New(fault.Policy{
		Seed:           5,
		DisconnectRate: 0.12,
		LatencyRate:    0.2,
		Latency:        200 * time.Microsecond,
	})
	client, err := kvnet.DialConfig(addr, kvnet.ClientConfig{
		DialTimeout:  2 * time.Second,
		ReadTimeout:  2 * time.Second,
		WriteTimeout: 2 * time.Second,
		MaxRetries:   12,
		RetryBackoff: time.Millisecond,
		RetrySeed:    3,
		Dial:         fault.Dialer(inj),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()

	control := smartflux.NewStore()
	ctrlTbl, err := control.EnsureTable("chaos", kvstore.TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.CreateTable("chaos", 0); err != nil {
		t.Fatal(err)
	}

	for wave := 0; wave < 3; wave++ {
		for i := 0; i < 20; i++ {
			row := "s" + strconv.Itoa(i)
			v := float64(wave*100 + i)
			if err := client.PutFloat("chaos", row, "v", v); err != nil {
				t.Fatalf("wave %d put %s: %v", wave, row, err)
			}
			if err := ctrlTbl.PutFloat(row, "v", v); err != nil {
				t.Fatal(err)
			}
		}
		// A batch and a few deletes per wave exercise the remaining
		// mutating ops; reads in between must not disturb the clock.
		ops := make([]kvstore.Op, 0, 10)
		ctrlBatch := smartflux.NewBatch()
		for i := 0; i < 10; i++ {
			row, v := "b"+strconv.Itoa(i), float64(wave*10+i)
			ops = append(ops, kvstore.Op{Row: row, Column: "v", Value: kvstore.EncodeFloat(v)})
			ctrlBatch.PutFloat(row, "v", v)
		}
		if err := client.Apply("chaos", ops); err != nil {
			t.Fatalf("wave %d apply: %v", wave, err)
		}
		if err := ctrlTbl.Apply(ctrlBatch); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			row := "b" + strconv.Itoa(i)
			if err := client.Delete("chaos", row, "v"); err != nil {
				t.Fatalf("wave %d delete %s: %v", wave, row, err)
			}
			if err := ctrlTbl.Delete(row, "v"); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := client.Scan("chaos", kvstore.ScanOptions{}); err != nil {
			t.Fatalf("wave %d scan: %v", wave, err)
		}
		if _, _, err := client.Get("chaos", "s0", "v"); err != nil {
			t.Fatalf("wave %d get: %v", wave, err)
		}
	}

	st := inj.Stats()
	if st.Disconnects == 0 {
		t.Fatalf("no disconnects injected (%+v); the run proves nothing", st)
	}
	got := string(serverStore.Dump())
	want := string(control.Dump())
	if got != want {
		t.Errorf("server store diverged from control after %d injected disconnects:\nserver:\n%s\ncontrol:\n%s",
			st.Disconnects, got, want)
	}
	t.Logf("absorbed %d disconnects, %d delays over %d transport ops", st.Disconnects, st.Latencies, st.Ops)
}

// chaosDegradeBuild is the chaos pipeline with faults confined to the live
// instance's alert step (the harness builds the live instance first). The
// reference instance must stay clean: it supplies training labels and
// hypothetical outputs, which degradation must never contaminate.
func chaosDegradeBuild(rig *chaosRig) smartflux.BuildFunc {
	calls := 0
	inner := func(p fault.Policy) smartflux.BuildFunc {
		return chaosBuild(p, rig)
	}
	return func() (*smartflux.Workflow, *smartflux.Store, error) {
		calls++
		if calls == 1 {
			// Live instance: the alert step's op budget fails often enough
			// to exhaust its retries on many waves.
			return inner(fault.Policy{
				Seed:      11,
				ErrorRate: 0.35,
				Ops:       map[string]bool{"put": true},
			})()
		}
		return inner(fault.Policy{})()
	}
}

// TestChaosDegradedStepsInTrace drives the harness with a persistently
// failing live step under -degrade semantics: the run must complete, charge
// the forced skips to the ε tracker, and surface every one of them in the
// step report and the decision trace.
func TestChaosDegradedStepsInTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	rig := &chaosRig{}
	reg := smartflux.NewMetricsRegistry()
	ring := smartflux.NewTraceRing(4096)
	harness, err := smartflux.NewHarnessWithConfig(chaosDegradeBuild(rig), []smartflux.StepID{"alert"}, smartflux.HarnessConfig{
		StepRetries:  1,
		RetrySeed:    3,
		DegradeGated: true,
		// Measuring ε re-runs the alert step hypothetically through the same
		// faulty store; wave retries absorb the rare case where that pass
		// exhausts the step budget too.
		WaveRetries: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	harness.Instrument(chaosObserver(t, reg, ring))
	res, err := harness.Run(30, smartflux.SyncPolicy())
	if err != nil {
		t.Fatalf("degraded run must complete: %v", err)
	}

	report := res.Reports["alert"]
	if report == nil {
		t.Fatal("no report for step alert")
	}
	var degraded int
	for _, d := range report.Degraded {
		if d {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatal("no degraded waves despite a persistently failing step")
	}
	var traced, tracedAlert int
	for _, ev := range ring.Tail(0) {
		if ev.Degraded {
			if ev.Executed {
				t.Errorf("degraded event claims execution: %+v", ev)
			}
			traced++
			if ev.Step == "alert" {
				tracedAlert++
			}
		}
	}
	if tracedAlert != degraded {
		t.Errorf("decision trace shows %d degraded alert steps, report shows %d", tracedAlert, degraded)
	}
	snap := reg.Snapshot()
	// The aggregate step shares the faulty put budget, so the global counter
	// may exceed the alert-only report tally but must cover every traced
	// event.
	if got := snap.Counters["smartflux_engine_steps_degraded_total"]; got != uint64(traced) {
		t.Errorf("degraded counter = %d, want %d traced events", got, traced)
	}
	// Degraded waves still produce a measured ε: the reference executed, the
	// live output froze, and the gap is charged against the bound.
	if len(report.Measured) != 30 {
		t.Fatalf("want 30 measured waves, got %d", len(report.Measured))
	}
	t.Logf("%d/30 waves degraded and traced; live store froze, run survived", degraded)
}
