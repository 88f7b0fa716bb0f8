package main

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"smartflux"
	"smartflux/workloads"
)

// outOfOrderLog is a hand-built mixed JSONL stream exercising everything a
// real log can throw at the parser: children before parents, the wave span
// last, a torn line, an unknown record type, a duplicate span ID (a wave
// retry re-emitting the same deterministic ID) and an interleaved decision.
const outOfOrderLog = `{"type":"span","id":"run/w0/b/a0","parent":"run/w0/b","name":"attempt","layer":"engine","wave":0,"attempt":0,"dur_ns":2500000}
{"type":"span","id":"run/w0/b","parent":"run/w0","name":"step","layer":"engine","wave":0,"step":"b","attempt":-1,"dur_ns":3000000,"wait_for":["run/w0/a"]}
{"type":"span","id":"run/w0/c","parent":"run/w0","name":"step","layer":"engine","wave":0,"step":"c","attempt":-1,"dur_ns":1000000,"skipped":true,"wait_for":["run/w0/a"]}
this line is torn mid-{record
{"type":"widget","id":"future-record-kind"}
{"type":"span","id":"run/w0/a","parent":"run/w0","name":"step","layer":"engine","wave":0,"step":"a","attempt":-1,"dur_ns":3000000}
{"type":"decision","wave":0,"step":"b","executed":true,"sim_eps":0.25,"iota":0.4}
{"type":"span","id":"run/w0","parent":"run","name":"wave","layer":"engine","wave":0,"attempt":-1,"dur_ns":9000000}
{"type":"span","id":"run/w0","parent":"run","name":"wave","layer":"engine","wave":0,"attempt":-1,"dur_ns":8000000}
`

func TestReassembleOutOfOrder(t *testing.T) {
	tr := newTrace()
	if err := tr.readFrom(strings.NewReader(outOfOrderLog)); err != nil {
		t.Fatal(err)
	}
	if tr.malformed != 1 {
		t.Errorf("malformed = %d, want 1", tr.malformed)
	}
	if tr.unknown != 1 {
		t.Errorf("unknown = %d, want 1", tr.unknown)
	}
	if len(tr.spans) != 5 {
		t.Fatalf("spans = %d, want 5", len(tr.spans))
	}
	// The duplicate wave record must win, once, with its later payload.
	if got := tr.spans["run/w0"].DurNanos; got != 8000000 {
		t.Errorf("duplicate ID: dur = %d, want last-wins 8000000", got)
	}
	seen := 0
	for _, id := range tr.order {
		if id == "run/w0" {
			seen++
		}
	}
	if seen != 1 {
		t.Errorf("run/w0 appears %d times in order, want 1", seen)
	}

	byWave := tr.waveSteps()
	steps := byWave[0]
	if len(steps) != 3 {
		t.Fatalf("wave 0 steps = %d, want 3", len(steps))
	}
	wsp, ok := tr.waveSpan(0)
	if !ok {
		t.Fatal("wave span missing")
	}
	cp := criticalPath(0, steps, wsp.DurNanos)
	// b's 3ms on top of a's 3ms: the chain a -> b (6ms) beats both a alone
	// and the skipped c.
	if cp.cpDur != 6000000 {
		t.Errorf("critical path = %dns, want 6000000", cp.cpDur)
	}
	if want := []string{"a", "b"}; strings.Join(cp.path, ",") != strings.Join(want, ",") {
		t.Errorf("path = %v, want %v", cp.path, want)
	}
	if cp.executed != 2 || cp.skipped != 1 {
		t.Errorf("exec/skip = %d/%d, want 2/1", cp.executed, cp.skipped)
	}

	rows := tr.epsTimeline()
	if len(rows) != 1 || rows[0].executed != 1 || rows[0].epsSum != 0.25 {
		t.Errorf("eps timeline = %+v, want one wave with 1 executed, Σε 0.25", rows)
	}

	var out bytes.Buffer
	writeReport(&out, tr, 5, 0)
	report := out.String()
	for _, want := range []string{"Per-wave critical path", "a -> b", "Per-layer latency", "ε-spend timeline", "skipped 1 malformed and 1 unknown-type lines"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

// tracePipeline runs the seeded quickstart-sized pipeline with span tracing
// into a buffer and returns the parsed trace.
func tracePipeline(t *testing.T) *trace {
	t.Helper()
	var buf bytes.Buffer
	sink := smartflux.NewJSONLTraceSink(&buf)
	observer := smartflux.NewRunObserver(smartflux.NewMetricsRegistry(), sink).WithSpanSinks(sink)
	build := workloads.AirQuality(workloads.AirQualityConfig{Seed: 42})
	res, err := smartflux.RunPipeline(build, nil, smartflux.PipelineConfig{
		TrainWaves: 40,
		ApplyWaves: 20,
		Session:    smartflux.SessionConfig{Seed: 1},
		Obs:        observer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Apply == nil {
		t.Fatal("no apply phase")
	}
	tr := newTrace()
	if err := tr.readFrom(&buf); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestSeededPipelineReport is the golden-ish acceptance check: a seeded run
// produces a trace whose analysis contains every report section, a full
// critical path per wave, and the deterministic ID tree (same engine/ml span
// IDs on a re-run, even though timings differ).
func TestSeededPipelineReport(t *testing.T) {
	tr := tracePipeline(t)
	if tr.malformed != 0 || tr.unknown != 0 {
		t.Fatalf("clean run parsed with %d malformed / %d unknown lines", tr.malformed, tr.unknown)
	}
	if len(tr.decisions) == 0 {
		t.Fatal("no decision records in mixed stream")
	}

	byWave := tr.waveSteps()
	// The harness instruments only the live instance; each of the 60 waves
	// must have a wave span with step children.
	if len(byWave) != 60 {
		t.Fatalf("waves with steps = %d, want 60", len(byWave))
	}
	for wv, steps := range byWave {
		if len(steps) == 0 {
			t.Fatalf("wave %d has no step spans", wv)
		}
		wsp, ok := tr.waveSpan(wv)
		if !ok {
			t.Fatalf("wave %d span missing", wv)
		}
		cp := criticalPath(wv, steps, wsp.DurNanos)
		if len(cp.path) == 0 {
			t.Fatalf("wave %d: empty critical path", wv)
		}
		// The critical chain executes sequentially inside the wave, so it
		// can never exceed the observed wave duration (1ms slop for clock
		// granularity).
		if cp.cpDur > cp.waveDur+int64(1e6) {
			t.Fatalf("wave %d: critical path %dns exceeds wave duration %dns", wv, cp.cpDur, cp.waveDur)
		}
	}

	if _, ok := tr.spans["train/t0"]; !ok {
		t.Error("no train/t0 span from Session.Train")
	}
	layers := map[string]bool{}
	for _, id := range tr.order {
		layers[tr.spans[id].Layer] = true
	}
	for _, want := range []string{"engine", "store", "ml"} {
		if !layers[want] {
			t.Errorf("layer %q missing from trace (have %v)", want, layers)
		}
	}

	var out bytes.Buffer
	writeReport(&out, tr, 5, 0)
	report := out.String()
	for _, want := range []string{"Per-wave critical path", "Per-layer latency", "ε-spend timeline", "engine"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q", want)
		}
	}

	// Determinism: a second identical run yields the identical engine+ml
	// span ID tree — IDs derive from (run, wave, step, attempt), not from
	// allocation order or timing.
	ids := func(tr *trace) []string {
		var out []string
		for id, ev := range tr.spans {
			if ev.Layer == "engine" || ev.Layer == "ml" {
				out = append(out, id)
			}
		}
		sort.Strings(out)
		return out
	}
	tr2 := tracePipeline(t)
	a, b := ids(tr), ids(tr2)
	if len(a) != len(b) {
		t.Fatalf("span tree size changed across seeded runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("span ID %d differs across seeded runs: %s vs %s", i, a[i], b[i])
		}
	}
}
