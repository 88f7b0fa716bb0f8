package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// environment records where and how a report was measured.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GitRev     string `json:"git_rev"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Runs       int    `json:"runs"`
	Smoke      bool   `json:"smoke,omitempty"`
}

func currentEnvironment(seed int64, seconds, runs int, smoke bool) environment {
	rev := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		rev = strings.TrimSpace(string(out))
	}
	return environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GitRev:     rev,
		Seed:       seed,
		Seconds:    seconds,
		Runs:       runs,
		Smoke:      smoke,
	}
}

// stat is one metric over the runs of a report: the median, the quartiles
// and the run count.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// spread is the interquartile distance as a share of the median.
func (s stat) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Value)
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so spreads
// computed here match the ones the benchmark is accepted on.
func quartiles(values []float64) (q1, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	if n < 2 {
		return x[0], x[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

func newStat(values []float64, unit string) stat {
	q1, q3 := quartiles(values)
	return stat{Value: quantile(values, 0.5), Unit: unit, Q1: q1, Q3: q3, N: len(values)}
}

// workloadReport is one workload's section of a report.
type workloadReport struct {
	Name         string          `json:"name"`
	Correct      bool            `json:"correct"`
	OpsAttempted int             `json:"ops_attempted"`
	OpsFailed    int             `json:"ops_failed"`
	Digest       string          `json:"digest"`
	Problems     []string        `json:"problems,omitempty"`
	EndToEnd     map[string]stat `json:"end_to_end"`
	PerLayer     map[string]stat `json:"per_layer"`
}

// report is what a full run writes and what -compare reads.
type report struct {
	Env       environment      `json:"env"`
	Workloads []workloadReport `json:"workloads"`
}

// summarize folds the untraced runs and the traced run of one workload into
// its report section. Counts add up over runs; the digest must repeat.
func summarize(name string, untraced []*outcome, traced *outcome) workloadReport {
	wr := workloadReport{
		Name: name, Digest: untraced[0].Digest,
		EndToEnd: make(map[string]stat), PerLayer: make(map[string]stat),
	}
	for _, o := range append(append([]*outcome(nil), untraced...), traced) {
		wr.OpsAttempted += o.Attempted
		wr.OpsFailed += o.Failed
		wr.Problems = append(wr.Problems, o.Problems...)
		if o.Digest != wr.Digest {
			wr.Problems = append(wr.Problems, fmt.Sprintf("digest %s does not repeat (first run %s)", o.Digest, wr.Digest))
		}
	}
	wr.Correct = len(wr.Problems) == 0
	for _, d := range endToEnd {
		values := make([]float64, len(untraced))
		for i, o := range untraced {
			values[i] = o.Metrics[d.Name]
		}
		wr.EndToEnd[d.Name] = newStat(values, d.Unit)
	}
	for _, d := range perLayer {
		wr.PerLayer[d.Name] = newStat([]float64{traced.Metrics[d.Name]}, d.Unit)
	}
	return wr
}

// printLines prints one `workload metric value unit` line per metric, the
// end-to-end ones first.
func (wr workloadReport) printLines(w io.Writer) {
	for _, d := range endToEnd {
		fmt.Fprintf(w, "%s %s %.6g %s\n", wr.Name, d.Name, wr.EndToEnd[d.Name].Value, d.Unit)
	}
	fmt.Fprintf(w, "%s ops_attempted %d count\n%s ops_failed %d count\n%s digest %s sha256\n",
		wr.Name, wr.OpsAttempted, wr.Name, wr.OpsFailed, wr.Name, wr.Digest)
	for _, d := range perLayer {
		fmt.Fprintf(w, "%s %s %.6g %s\n", wr.Name, d.Name, wr.PerLayer[d.Name].Value, d.Unit)
	}
	for _, p := range wr.Problems {
		fmt.Fprintf(w, "%s FAILED %s\n", wr.Name, p)
	}
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compare prints one row per (workload, end-to-end metric) of two reports
// against the bounds in spec and returns how many rows regressed. A row is
// `unresolved` when either side's run-to-run spread is wider than the bound:
// the runs cannot tell a change of that size from noise. A changed digest on
// the same seed, or a larger share of failed operations, also regresses.
func compare(w io.Writer, spec *benchSpec, old, cur *report) (regressed int) {
	curByName := make(map[string]workloadReport)
	for _, wr := range cur.Workloads {
		curByName[wr.Name] = wr
	}
	fmt.Fprintf(w, "%-14s %-17s %12s %12s %8s %7s %7s  %s\n",
		"workload", "metric", "old", "new", "new/old", "bound", "spread", "verdict")
	for _, o := range old.Workloads {
		n, ok := curByName[o.Name]
		if !ok {
			continue
		}
		for _, d := range spec.EndToEnd {
			a, b := o.EndToEnd[d.Name], n.EndToEnd[d.Name]
			worse := (b.Value - a.Value) / a.Value
			if d.Better == "higher" {
				worse = -worse
			}
			spread := math.Max(a.spread(), b.spread())
			verdict := "ok"
			switch {
			case spread > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(w, "%-14s %-17s %12.6g %12.6g %8.4f %7.3f %7.4f  %s\n",
				o.Name, d.Name, a.Value, b.Value, b.Value/a.Value, d.Bound, spread, verdict)
		}
		if old.Env.Seed == cur.Env.Seed && old.Env.Seconds == cur.Env.Seconds && o.Digest != n.Digest {
			fmt.Fprintf(w, "%-14s digest changed on the same seed: %s -> %s  regressed\n", o.Name, o.Digest, n.Digest)
			regressed++
		}
		if failShare(n) > failShare(o) {
			fmt.Fprintf(w, "%-14s ops_failed %d/%d -> %d/%d  regressed\n",
				o.Name, o.OpsFailed, o.OpsAttempted, n.OpsFailed, n.OpsAttempted)
			regressed++
		}
	}
	return regressed
}

func failShare(wr workloadReport) float64 {
	if wr.OpsAttempted == 0 {
		return 0
	}
	return float64(wr.OpsFailed) / float64(wr.OpsAttempted)
}
