package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"smartflux/internal/obs"
)

const specFile = "../BENCHMARK.json"

var nameAlphabet = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecMatchesTables checks BENCHMARK.json against the benchmark's own
// workload and metric tables: same names, same units, allowed alphabet, a
// bound on every end-to-end metric and setup_s among them.
func TestSpecMatchesTables(t *testing.T) {
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the wave counts are sized for %d", spec.RunSeconds, runSeconds)
	}
	// Every declared workload is implemented, in table order; the table's
	// other two (aqhi-durable, lrb-cluster) are too noisy to carry a bound.
	if len(spec.Workloads) != 2 {
		t.Fatalf("%d workloads declared, want the two in-memory ones", len(spec.Workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadTable[i].name {
			t.Errorf("workload %d is %q, the table has %q", i, w.Name, workloadTable[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, declared, table []metricDef, bounded bool) {
		if len(declared) != len(table) {
			t.Fatalf("%s: %d metrics declared, %d implemented", kind, len(declared), len(table))
		}
		for i, d := range declared {
			if d.Name != table[i].Name || d.Unit != table[i].Unit {
				t.Errorf("%s metric %d is %s [%s], the table has %s [%s]", kind, i, d.Name, d.Unit, table[i].Name, table[i].Unit)
			}
			if !nameAlphabet.MatchString(d.Name) {
				t.Errorf("metric name %q is outside the allowed alphabet", d.Name)
			}
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("metric %q: better is %q", d.Name, d.Better)
			}
			if bounded && (d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if spec.EndToEnd[0].Name != "setup_s" || spec.EndToEnd[0].Unit != "s" || spec.EndToEnd[0].Better != "lower" {
		t.Errorf("setup_s [s, lower] must be an end-to-end metric")
	}
}

// TestSmoke runs every workload at smoke length — untraced run, traced run,
// probes, every correctness check — and validates the report: each workload
// and metric BENCHMARK.json names is present with its unit, and nothing else.
// It then feeds one workload's span file to cmd/sftrace unchanged.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	dir := t.TempDir()
	reportPath := filepath.Join(dir, "report.json")
	var out bytes.Buffer
	err := run([]string{"-smoke", "-force", "-tmp", dir, "-out", reportPath,
		"-trace-out", filepath.Join(dir, "spans.jsonl")}, &out)
	if err != nil {
		t.Fatalf("smoke run: %v\n%s", err, out.String())
	}

	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := readReport(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Env.GoVersion == "" || rep.Env.NumCPU < 1 || rep.Env.GOMAXPROCS < 1 || rep.Env.GitRev == "" || rep.Env.Seed != 1 {
		t.Errorf("environment record incomplete: %+v", rep.Env)
	}
	if len(rep.Workloads) != len(workloadTable) {
		t.Fatalf("%d workloads reported, %d implemented", len(rep.Workloads), len(workloadTable))
	}
	for i, wr := range rep.Workloads {
		if wr.Name != workloadTable[i].name {
			t.Errorf("workload %d is %q, the table has %q", i, wr.Name, workloadTable[i].name)
		}
		if !wr.Correct || wr.OpsFailed != 0 || wr.OpsAttempted < 1 || len(wr.Digest) != 64 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d digest=%q %v",
				wr.Name, wr.Correct, wr.OpsFailed, wr.OpsAttempted, wr.Digest, wr.Problems)
		}
		checkMetrics(t, wr.Name, wr.EndToEnd, spec.EndToEnd)
		checkMetrics(t, wr.Name, wr.PerLayer, spec.PerLayer)
		for _, d := range spec.EndToEnd {
			if wr.EndToEnd[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must never be 0", wr.Name, d.Name, wr.EndToEnd[d.Name].Value)
			}
		}
		for _, d := range append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...) {
			if !strings.Contains(out.String(), wr.Name+" "+d.Name+" ") {
				t.Errorf("no `%s %s value unit` line printed", wr.Name, d.Name)
			}
		}
	}

	// The layer predicted dominant is the one measured dominant, and a layer
	// a workload bypasses reads exactly 0.
	layer := func(w, m string) float64 { return rep.Workloads[indexOf(t, rep, w)].PerLayer[m].Value }
	for _, w := range []string{"lrb-mem", "lrb-mem-sync"} {
		if s := layer(w, "engine.self_share") + layer(w, "workflow.proc_share"); s < 0.9 {
			t.Errorf("%s: engine.self + workflow.proc = %.3f of the wave, predicted ≥ 0.9", w, s)
		}
		if layer(w, "durable.share") != 0 || layer(w, "cluster.ship_share") != 0 {
			t.Errorf("%s: bypassed layers report time", w)
		}
	}
	if s := layer("aqhi-durable", "durable.share"); s < 0.25 || layer("aqhi-durable", "cluster.ship_share") != 0 {
		t.Errorf("aqhi-durable: durable share %.3f, predicted ≥ 0.25 and no cluster time", s)
	}
	if s := layer("lrb-cluster", "cluster.ship_share"); s < 0.8 || layer("lrb-cluster", "durable.share") != 0 {
		t.Errorf("lrb-cluster: cluster.ship share %.3f, predicted ≥ 0.8 and no WAL time", s)
	}

	// The span file decodes back into obs.SpanEvent with deterministic
	// path-like IDs, and cmd/sftrace reports on it unchanged.
	spans := filepath.Join(dir, "aqhi-durable.spans.jsonl")
	f, err := os.Open(spans)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	layers := make(map[string]int)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ev obs.SpanEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("span line does not decode: %v", err)
		}
		if ev.Type != "span" || !strings.HasPrefix(ev.ID, "run/w") || ev.Wave < 0 || ev.DurNanos < 0 {
			t.Fatalf("malformed span %+v", ev)
		}
		layers[ev.Layer]++
	}
	for _, l := range []string{"engine", "store", "wal", "ml"} {
		if layers[l] == 0 {
			t.Errorf("no %q-layer spans in the aqhi-durable trace (have %v)", l, layers)
		}
	}
	sftrace, err := exec.Command("go", "run", "smartflux/cmd/sftrace", spans).CombinedOutput()
	if err != nil {
		t.Fatalf("sftrace on a benchmark trace: %v\n%s", err, sftrace)
	}
	_, perLayerSection, found := strings.Cut(string(sftrace), "== Per-layer latency ==")
	if !found || !strings.Contains(perLayerSection, "durable.commit") || !strings.Contains(string(sftrace), "== Per-wave critical path ==") {
		t.Errorf("sftrace report lacks the per-layer or critical-path section:\n%s", sftrace)
	}
}

func indexOf(t *testing.T, rep *report, workload string) int {
	t.Helper()
	for i, wr := range rep.Workloads {
		if wr.Name == workload {
			return i
		}
	}
	t.Fatalf("workload %q not reported", workload)
	return -1
}

func checkMetrics(t *testing.T, workload string, got map[string]stat, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics reported, %d declared", workload, len(got), len(want))
	}
	for _, d := range want {
		s, ok := got[d.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, d.Name)
			continue
		}
		if s.Unit != d.Unit || s.N < 1 {
			t.Errorf("%s: metric %s has unit %q (declared %q), n=%d", workload, d.Name, s.Unit, d.Unit, s.N)
		}
	}
}

// TestCompare covers the three verdicts and the two extra regressions.
func TestCompare(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricDef{
		{Name: "waves_per_s", Unit: "waves/s", Better: "higher", Bound: 0.10},
		{Name: "wave_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	}}
	side := func(wps, p50, p50q3 float64, digest string, failed int) *report {
		return &report{Env: environment{Seed: 1, Seconds: 10}, Workloads: []workloadReport{{
			Name: "lrb-mem", OpsAttempted: 100, OpsFailed: failed, Digest: digest,
			EndToEnd: map[string]stat{
				"waves_per_s": {Value: wps, Q1: wps * 0.99, Q3: wps * 1.01, N: 5},
				"wave_p50_ms": {Value: p50, Q1: p50, Q3: p50q3, N: 5},
			},
		}}}
	}
	for _, tc := range []struct {
		name      string
		old, cur  *report
		regressed int
		want      []string
	}{
		{"same", side(100, 8, 8.1, "d", 0), side(103, 8.2, 8.3, "d", 0), 0, []string{"ok"}},
		{"slower throughput", side(100, 8, 8.1, "d", 0), side(85, 8, 8.1, "d", 0), 1, []string{"regressed"}},
		{"noisy latency", side(100, 8, 8.1, "d", 0), side(100, 12, 14, "d", 0), 0, []string{"unresolved"}},
		{"digest and failures", side(100, 8, 8.1, "d", 0), side(100, 8, 8.1, "e", 3), 2, []string{"digest changed", "ops_failed 0/100 -> 3/100"}},
	} {
		var out bytes.Buffer
		if got := compare(&out, spec, tc.old, tc.cur); got != tc.regressed {
			t.Errorf("%s: %d regressed, want %d\n%s", tc.name, got, tc.regressed, out.String())
		}
		for _, s := range tc.want {
			if !strings.Contains(out.String(), s) {
				t.Errorf("%s: output lacks %q\n%s", tc.name, s, out.String())
			}
		}
	}
}
