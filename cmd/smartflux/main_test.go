package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Every policy is the one pipeline run: a synchronous warm-up of -train waves
// (0 is a cold start), then -apply waves under the policy, whose name the
// header reads from the result. Only smartflux has a test phase to print.
func TestRunNaivePolicies(t *testing.T) {
	for policy, train := range map[string]string{"sync": "0", "seq3": "30", "random": "0", "oracle": "30"} {
		t.Run(policy, func(t *testing.T) {
			var buf bytes.Buffer
			err := run([]string{
				"-workload", "firerisk", "-policy", policy, "-train", train, "-apply", "20",
			}, &buf)
			if err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if !strings.Contains(out, "policy "+policy) {
				t.Errorf("output missing policy header:\n%s", out)
			}
			if !strings.Contains(out, "executions:") || !strings.Contains(out, "in 20 waves") {
				t.Errorf("output missing the 20-wave application result:\n%s", out)
			}
			if strings.Contains(out, "test phase:") {
				t.Errorf("a policy that does not learn printed a test phase:\n%s", out)
			}
		})
	}
	// With no application phase the warm-up is all that ran, and names the run.
	var buf bytes.Buffer
	if err := run([]string{"-workload", "firerisk", "-policy", "seq3", "-train", "10", "-apply", "0"}, &buf); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "policy sync") || strings.Contains(out, "executions:") {
		t.Errorf("-policy seq3 -apply 0 should report its synchronous warm-up and nothing else:\n%s", out)
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

// resultLines is a run's output without the lines that describe the journal
// rather than the run.
func resultLines(out string) string {
	var keep []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.Contains(line, "durability:") && !strings.Contains(line, "recovered:") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// TestRunJournalsEveryPolicy is TestRunRejectsDurabilityFlagsOutsidePipeline's
// opposite: every policy runs through the pipeline, so each of its six rows now
// writes a log. The journaled run prints what the plain one prints; a fresh run
// over its directory is sent to -resume; -resume of the directory as a kill
// before the first line of output leaves it — every wave committed — ends on
// the uncrashed output; a kill that tore the log's tail is recovered
// mid-application and run to its end (the bundled simulators are live feeds, so
// only the policy's own schedule repeats exactly on the re-run waves: DESIGN.md
// §11); and a resume under another policy is refused by name.
func TestRunJournalsEveryPolicy(t *testing.T) {
	for _, tc := range []struct {
		policy string
		train  int
		flags  string
	}{
		{"seq3", 30, ""},
		{"seq3", 0, ""},
		{"seq3", 30, "-snapshot-every 8"},
		{"sync", 30, "-snapshot-every 8"},
		{"random", 30, "-fsync never"},
		{"oracle", 30, "-parallelism 1"},
	} {
		t.Run(strings.TrimSpace(fmt.Sprintf("%s -train %d %s", tc.policy, tc.train, tc.flags)), func(t *testing.T) {
			// args builds a fresh command line: -policy over dir ("" = no journal).
			args := func(policy, dir string, more ...string) []string {
				a := []string{"-workload", "firerisk", "-policy", policy, "-train", fmt.Sprint(tc.train), "-apply", "30"}
				if dir != "" {
					a = append(a, "-wal-dir", dir)
				}
				return append(append(a, strings.Fields(tc.flags)...), more...)
			}
			dir, killed := filepath.Join(t.TempDir(), "wal"), filepath.Join(t.TempDir(), "wal")
			var plain, fresh, resumed, torn bytes.Buffer
			if err := run(args(tc.policy, ""), &plain); err != nil {
				t.Fatal(err)
			}
			if err := run(args(tc.policy, dir), &fresh); err != nil {
				t.Fatal(err)
			}
			logs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
			if len(logs) == 0 || !strings.Contains(fresh.String(), "durability:") {
				t.Fatalf("-policy %s -wal-dir journaled nothing (logs %v):\n%s", tc.policy, logs, fresh.String())
			}
			if got, want := resultLines(fresh.String()), resultLines(plain.String()); got != want {
				t.Errorf("journaled run printed\n%s\nthe plain run\n%s", got, want)
			}
			if err := run(args(tc.policy, dir), new(bytes.Buffer)); err == nil || !strings.Contains(err.Error(), "resume") {
				t.Fatalf("fresh run over existing state: %v", err)
			}
			// A copy of the directory with the tail torn off its newest log is what
			// a kill mid-append leaves.
			if err := os.CopyFS(killed, os.DirFS(dir)); err != nil {
				t.Fatal(err)
			}
			newest := filepath.Join(killed, filepath.Base(logs[len(logs)-1]))
			if info, err := os.Stat(newest); err != nil {
				t.Fatal(err)
			} else if err := os.Truncate(newest, info.Size()*7/8); err != nil {
				t.Fatal(err)
			}

			if err := run(args(tc.policy, dir, "-resume"), &resumed); err != nil {
				t.Fatal(err)
			}
			if got, want := resultLines(resumed.String()), resultLines(fresh.String()); got != want || !strings.Contains(resumed.String(), "recovered: wave ") {
				t.Errorf("resumed run printed\n%s\nthe uncrashed run\n%s", resumed.String(), want)
			}

			if err := run(args(tc.policy, killed, "-resume"), &torn); err != nil {
				t.Fatalf("resume of a torn log: %v", err)
			}
			out := torn.String()
			var wave int
			if i := strings.Index(out, "recovered: wave "); i < 0 {
				t.Fatalf("missing recovery line:\n%s", out)
			} else if _, err := fmt.Sscanf(out[i:], "recovered: wave %d", &wave); err != nil {
				t.Fatal(err)
			}
			if wave <= tc.train || wave >= tc.train+30 {
				t.Errorf("recovered at wave %d, want a kill inside the application phase (%d, %d)", wave, tc.train, tc.train+30)
			}
			if !strings.Contains(out, "policy "+tc.policy) || !strings.Contains(out, "in 30 waves") {
				t.Errorf("the recovered run did not finish its application phase under %s:\n%s", tc.policy, out)
			}

			err := run(args("seq2", dir, "-resume"), new(bytes.Buffer))
			if err == nil || !strings.Contains(err.Error(), `"`+tc.policy+`"`) || !strings.Contains(err.Error(), `"seq2"`) {
				t.Fatalf("resume under seq2 of a %s directory = %v, want a refusal naming both", tc.policy, err)
			}
		})
	}
}

// TestRunClusterComposesWithResume: -cluster with -wal-dir, then the same
// line with -resume. Each process starts its own empty cluster, so the
// resumed one sees the recovered store only if the mirror attaches after the
// restore; both runs must end on the bit-identical line — under smartflux and
// under a policy that does not learn, which is the same run.
func TestRunClusterComposesWithResume(t *testing.T) {
	const identical = "cluster: 2 shards, replicated; merged dump bit-identical to live store"
	for policy, train := range map[string]int{"smartflux": 60, "seq3": 10} {
		t.Run(policy, func(t *testing.T) {
			args := []string{
				"-workload", "firerisk", "-policy", policy, "-train", fmt.Sprint(train), "-apply", "30",
				"-cluster", "2", "-wal-dir", filepath.Join(t.TempDir(), "wal"),
			}
			var fresh, resumed bytes.Buffer
			if err := run(args, &fresh); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(fresh.String(), identical) {
				t.Fatalf("fresh run did not verify the cluster:\n%s", fresh.String())
			}
			if err := run(append(args, "-resume"), &resumed); err != nil {
				t.Fatalf("resume on a cluster: %v", err)
			}
			if rout := resumed.String(); !strings.Contains(rout, fmt.Sprintf("recovered: wave %d ", train+30)) || !strings.Contains(rout, identical) {
				t.Fatalf("resumed run did not recover and verify the cluster:\n%s", rout)
			}
		})
	}
}

func TestRunWithObservability(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	var buf bytes.Buffer
	err := run([]string{
		"-workload", "firerisk", "-policy", "seq3", "-train", "0", "-apply", "15",
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

// A trace that cannot be written fails the run.
func TestRunTraceWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full:", err)
	}
	err := run([]string{
		"-workload", "firerisk", "-policy", "seq3", "-train", "0", "-apply", "5", "-trace-out", "/dev/full",
	}, new(bytes.Buffer))
	if err == nil {
		t.Error("tracing to a full device must fail the run")
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
