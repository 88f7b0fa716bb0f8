package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunNaivePolicies(t *testing.T) {
	for _, policy := range []string{"sync", "seq3", "random", "oracle"} {
		t.Run(policy, func(t *testing.T) {
			var buf bytes.Buffer
			err := run([]string{
				"-workload", "firerisk", "-policy", policy, "-apply", "20",
			}, &buf)
			if err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if !strings.Contains(out, "policy "+policy) {
				t.Errorf("output missing policy header:\n%s", out)
			}
			if !strings.Contains(out, "executions:") {
				t.Errorf("output missing executions line:\n%s", out)
			}
		})
	}
}

func TestRunSmartfluxPolicy(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-workload", "firerisk", "-policy", "smartflux",
		"-train", "60", "-apply", "30",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "test phase:") {
		t.Errorf("missing test-phase line:\n%s", buf.String())
	}
	// No application phase: PipelineResult.Apply is nil and nothing is printed
	// for it (this used to dereference it).
	buf.Reset()
	if err := run([]string{"-workload", "firerisk", "-train", "60", "-apply", "0"}, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "executions:") {
		t.Errorf("-apply 0 printed an application result:\n%s", buf.String())
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-workload", "bogus"}, &buf); err == nil {
		t.Error("unknown workload must fail")
	}
	if err := run([]string{"-policy", "bogus", "-apply", "1"}, &buf); err == nil {
		t.Error("unknown policy must fail")
	}
	if err := run([]string{"-policy", "seqX", "-apply", "1"}, &buf); err == nil {
		t.Error("malformed seq policy must fail")
	}
	if err := run([]string{"-wal-dir", t.TempDir(), "-fsync", "bogus", "-apply", "1"}, &buf); err == nil {
		t.Error("bad fsync mode must fail")
	}
	if err := run([]string{"-resume", "-apply", "1"}, &buf); err == nil {
		t.Error("-resume without -wal-dir must fail")
	}
	if err := run([]string{"-resume", "-wal-dir", t.TempDir(), "-train", "10", "-apply", "1"}, &buf); err == nil {
		t.Error("-resume with no durable state must fail")
	}
}

func TestRunDurableAndResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	args := []string{
		"-workload", "firerisk", "-policy", "smartflux",
		"-train", "60", "-apply", "30", "-wal-dir", dir,
	}
	var fresh bytes.Buffer
	if err := run(args, &fresh); err != nil {
		t.Fatal(err)
	}
	out := fresh.String()
	if !strings.Contains(out, "durability:") || !strings.Contains(out, "rotations") {
		t.Errorf("missing durability summary:\n%s", out)
	}
	if strings.Contains(out, "recovered:") {
		t.Errorf("fresh run must not print a recovery line:\n%s", out)
	}

	// A second fresh run over live state must refuse and direct to -resume.
	var again bytes.Buffer
	if err := run(args, &again); err == nil || !strings.Contains(err.Error(), "resume") {
		t.Fatalf("fresh run over existing state: %v", err)
	}

	// Resuming replays the checkpoint and reproduces the same results.
	var resumed bytes.Buffer
	if err := run(append(args, "-resume"), &resumed); err != nil {
		t.Fatal(err)
	}
	rout := resumed.String()
	if !strings.Contains(rout, "recovered: wave 90 from epoch ") {
		t.Errorf("missing one-line recovery summary:\n%s", rout)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.Contains(line, "durability:") {
			continue // WAL tallies legitimately differ on resume
		}
		if !strings.Contains(rout, line) {
			t.Errorf("resumed output missing line %q:\n%s", line, rout)
		}
	}

	// -snapshot-every and -fsync are accepted and produce extra rotations.
	dir2 := filepath.Join(t.TempDir(), "wal")
	var dense bytes.Buffer
	if err := run([]string{
		"-workload", "firerisk", "-policy", "smartflux",
		"-train", "40", "-apply", "10", "-wal-dir", dir2,
		"-snapshot-every", "8", "-fsync", "never",
	}, &dense); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dense.String(), "0 fsyncs") {
		t.Errorf("-fsync never should record 0 fsyncs:\n%s", dense.String())
	}
}

// Only -policy smartflux journals. Every other policy used to take -wal-dir and
// -resume, exit 0, write no log and resume nothing; now the flag is refused by
// name, and nothing is created.
func TestRunRejectsDurabilityFlagsOutsidePipeline(t *testing.T) {
	for _, tc := range []struct {
		policy string
		flags  string // DIR stands for the directory
		named  string
	}{
		{"seq3", "-wal-dir DIR", "-wal-dir"},
		{"seq3", "-resume", "-resume"},
		{"seq3", "-wal-dir DIR -resume", "-wal-dir"},
		{"sync", "-resume -wal-dir DIR", "-wal-dir"},
		{"random", "-wal-dir DIR -snapshot-every 8 -fsync never", "-wal-dir"},
		{"oracle", "-resume", "-resume"},
	} {
		t.Run(tc.policy+" "+tc.flags, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "wal")
			args := []string{"-workload", "aqhi", "-policy", tc.policy, "-apply", "20"}
			args = append(args, strings.Fields(strings.ReplaceAll(tc.flags, "DIR", dir))...)
			var buf bytes.Buffer
			err := run(args, &buf)
			if err == nil || !strings.HasPrefix(err.Error(), tc.named+":") || !strings.Contains(err.Error(), `"`+tc.policy+`"`) {
				t.Fatalf("run(%v) = %v, want an error naming %s and policy %q", args, err, tc.named, tc.policy)
			}
			if buf.Len() != 0 {
				t.Errorf("a refused run printed results:\n%s", buf.String())
			}
			if _, serr := os.Stat(dir); !os.IsNotExist(serr) {
				t.Errorf("a refused run touched %s: %v", dir, serr)
			}
		})
	}
}

// TestRunClusterComposesWithResume: -cluster with -wal-dir, then the same
// line with -resume. Each process starts its own empty cluster, so the
// resumed one sees the recovered store only if the mirror attaches after the
// restore; both runs must end on the bit-identical line. The plain-policy
// path attaches to its harness's live store and must end on it too.
func TestRunClusterComposesWithResume(t *testing.T) {
	const identical = "cluster: 2 shards, replicated; merged dump bit-identical to live store"
	args := []string{
		"-workload", "firerisk", "-policy", "smartflux", "-train", "60", "-apply", "30",
		"-cluster", "2", "-wal-dir", filepath.Join(t.TempDir(), "wal"),
	}
	var fresh, resumed, plain bytes.Buffer
	if err := run(args, &fresh); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fresh.String(), identical) {
		t.Fatalf("fresh run did not verify the cluster:\n%s", fresh.String())
	}
	if err := run(append(args, "-resume"), &resumed); err != nil {
		t.Fatalf("resume on a cluster: %v", err)
	}
	if rout := resumed.String(); !strings.Contains(rout, "recovered: wave 90") || !strings.Contains(rout, identical) {
		t.Fatalf("resumed run did not recover and verify the cluster:\n%s", rout)
	}
	if err := run([]string{"-workload", "firerisk", "-policy", "seq3", "-apply", "20", "-cluster", "2"}, &plain); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plain.String(), identical) {
		t.Fatalf("plain-policy run did not verify the cluster:\n%s", plain.String())
	}
}

func TestParsePolicy(t *testing.T) {
	for name, want := range map[string]string{
		"sync":   "sync",
		"random": "random",
		"seq4":   "seq4",
		"oracle": "oracle",
	} {
		p, err := parsePolicy(name, 1)
		if err != nil {
			t.Errorf("parsePolicy(%q): %v", name, err)
			continue
		}
		if p.Name() != want {
			t.Errorf("policy name = %q, want %q", p.Name(), want)
		}
	}
}

func TestRunWithObservability(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	var buf bytes.Buffer
	err := run([]string{
		"-workload", "firerisk", "-policy", "seq3", "-apply", "15",
		"-obs-addr", "127.0.0.1:0", "-trace-out", trace,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "observability on http://") {
		t.Errorf("missing debug-server line:\n%s", out)
	}
	if !strings.Contains(out, "decisions:") || !strings.Contains(out, "p95 decision latency") {
		t.Errorf("missing decision summary:\n%s", out)
	}

	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	// firerisk has gated steps; every (wave, gated step) pair traces one event.
	if len(lines) == 0 || len(lines)%15 != 0 {
		t.Fatalf("trace has %d lines, want a positive multiple of 15 waves", len(lines))
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("trace line not JSON: %v", err)
	}
	for _, key := range []string{"type", "wave", "step", "policy", "iota", "verdict", "max_eps"} {
		if _, ok := ev[key]; !ok {
			t.Errorf("trace event missing %q: %s", key, lines[0])
		}
	}
}

func TestRunSmartfluxPolicyTraced(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	var buf bytes.Buffer
	err := run([]string{
		"-workload", "firerisk", "-policy", "smartflux",
		"-train", "60", "-apply", "20", "-trace-out", trace,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var predicted bool
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev struct {
			PredictedLabel int `json:"predicted_label"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.PredictedLabel == 0 || ev.PredictedLabel == 1 {
			predicted = true
		}
	}
	if !predicted {
		t.Error("smartflux run should trace predictor labels in application phase")
	}
}
