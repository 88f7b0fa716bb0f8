package engine

import (
	"testing"

	"smartflux/internal/obs"
)

func TestInstanceInstrumented(t *testing.T) {
	inst := newTestInstance(t, 0.1, false)
	reg := obs.NewRegistry()
	ring := obs.NewRingSink(256)
	inst.Instrument(obs.New(reg, ring))

	const waves = 10
	for w := 0; w < waves; w++ {
		if _, err := inst.RunWave(NewSeq(2)); err != nil {
			t.Fatal(err)
		}
	}

	snap := reg.Snapshot()
	if got := snap.Counters["smartflux_engine_waves_total"]; got != waves {
		t.Errorf("waves_total = %d, want %d", got, waves)
	}
	execs := snap.Counters[`smartflux_engine_decisions_total{verdict="exec"}`]
	skips := snap.Counters[`smartflux_engine_decisions_total{verdict="skip"}`]
	// 2 gated steps × 10 waves = 20 decisions.
	if execs+skips != 20 {
		t.Errorf("exec+skip = %d+%d, want 20 total", execs, skips)
	}
	if execs == 0 || skips == 0 {
		t.Errorf("seq2 must both execute and skip (exec=%d skip=%d)", execs, skips)
	}
	if h := snap.Histograms["smartflux_engine_wave_duration_seconds"]; h.Count != waves {
		t.Errorf("wave duration samples = %d, want %d", h.Count, waves)
	}
	if h := snap.Histograms["smartflux_engine_decision_latency_seconds"]; h.Count == 0 {
		t.Error("decision latency histogram empty")
	}

	// One trace event per (wave, gated step), emitted by the instance.
	if got := ring.Len(); got != 20 { // the ring holds 256, so Len counts them all
		t.Fatalf("ring holds %d events, want 20", got)
	}
	for _, ev := range ring.Tail(0) {
		if ev.Type != "decision" || ev.Policy != "seq2" {
			t.Fatalf("bad event header: %+v", ev)
		}
		if ev.Step != "mid" && ev.Step != "leaf" {
			t.Fatalf("unexpected step %q", ev.Step)
		}
		if ev.Executed && ev.OptimalLabel == -1 {
			t.Fatalf("executed event must carry a simulated label: %+v", ev)
		}
		if len(ev.Impacts) != 2 {
			t.Fatalf("event must carry the full ι vector: %+v", ev)
		}
	}
}

func TestInstanceInstrumentNilDetach(t *testing.T) {
	inst := newTestInstance(t, 0.1, false)
	inst.Instrument(obs.New(obs.NewRegistry()))
	inst.Instrument(nil)
	res, err := inst.RunWave(Sync{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decisions != nil {
		t.Fatal("detached instance must not build decision events")
	}
}

func TestInstanceMetricsOnlyNoEvents(t *testing.T) {
	inst := newTestInstance(t, 0.1, false)
	inst.Instrument(obs.New(obs.NewRegistry())) // registry, no sinks
	res, err := inst.RunWave(Sync{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decisions != nil {
		t.Fatal("without a trace sink no events may be built")
	}
}

func TestHarnessTraceEnrichment(t *testing.T) {
	h, err := NewHarness(testWorkload(0.05), nil) // reports "leaf"
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ring := obs.NewRingSink(1024)
	h.Instrument(obs.New(reg, ring))

	const waves = 12
	res, err := h.Run(waves, NewSeq(3))
	if err != nil {
		t.Fatal(err)
	}

	events := ring.Tail(0)
	if len(events) != waves*len(res.GatedSteps) {
		t.Fatalf("got %d events, want %d", len(events), waves*len(res.GatedSteps))
	}
	report := res.Reports["leaf"]
	var leafEvents int
	for _, ev := range events {
		// The harness enriches every event with the reference instance's
		// simulated-optimal label.
		if ev.OptimalLabel != 0 && ev.OptimalLabel != 1 {
			t.Fatalf("event missing optimal label: %+v", ev)
		}
		if ev.Step == "leaf" {
			if !ev.EpsKnown {
				t.Fatalf("report-step event missing measured ε: %+v", ev)
			}
			if ev.MeasuredEps != report.Measured[ev.Wave] {
				t.Fatalf("wave %d measured ε = %v, want %v", ev.Wave, ev.MeasuredEps, report.Measured[ev.Wave])
			}
			if ev.PredictedEps != report.Predicted[ev.Wave] {
				t.Fatalf("wave %d predicted ε = %v, want %v", ev.Wave, ev.PredictedEps, report.Predicted[ev.Wave])
			}
			if ev.Violation != report.Violations[ev.Wave] {
				t.Fatalf("wave %d violation mismatch", ev.Wave)
			}
			leafEvents++
		} else if ev.EpsKnown {
			t.Fatalf("non-report step must not claim measured ε: %+v", ev)
		}
	}
	if leafEvents != waves {
		t.Fatalf("leaf events = %d, want %d", leafEvents, waves)
	}
	// Executed flags in the trace must match the result matrix.
	leafIdx := h.Live().GatedIndex("leaf")
	for _, ev := range events {
		if ev.Step == "leaf" && ev.Executed != res.LiveExecuted[ev.Wave][leafIdx] {
			t.Fatalf("wave %d executed flag mismatch", ev.Wave)
		}
	}
}

func TestHarnessUninstrumentedUnchanged(t *testing.T) {
	build := testWorkload(0.05)
	run := func(o *obs.Observer) *Result {
		h, err := NewHarness(build, nil)
		if err != nil {
			t.Fatal(err)
		}
		if o != nil {
			h.Instrument(o)
		}
		res, err := h.Run(10, NewSeq(2))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	observed := run(obs.New(obs.NewRegistry(), obs.NewRingSink(64)))
	if plain.TotalLiveExecutions() != observed.TotalLiveExecutions() {
		t.Fatal("instrumentation must not change execution decisions")
	}
	for w := range plain.RefLabels {
		for i := range plain.RefLabels[w] {
			if plain.RefLabels[w][i] != observed.RefLabels[w][i] {
				t.Fatal("instrumentation must not change labels")
			}
		}
	}
}
