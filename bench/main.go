// Command bench is the SmartFlux pipeline benchmark: waves per second and
// wave latency of a whole pipeline (ι observation → RF predict → execute or
// skip → store write → WAL or wire → replica ack) over LRB and AQHI inputs on
// three backends, with a second, traced run attributing each wave to the
// layers it crossed. See README.md in this directory.
//
//	go run ./bench                        # every workload, all metrics
//	go run ./bench -match lrb -runs 5     # a subset, median of 5 runs
//	go run ./bench -smoke                 # 1/50 length, checks only
//	go run ./bench -compare old.json new.json
//	go run ./bench -workload lrb-mem -seed 3 -seconds 10 -trace 0
//
// The last form is the contract BENCHMARK.json declares: one workload, one
// run, and a final stdout line holding one JSON object.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// setupsPerRun is how many times an untraced run sets up; setup_s is the
// median, which rejects a set-up that a hiccup of the host stretched.
const setupsPerRun = 3

// errIncorrect is returned after the results are printed when a correctness
// check failed, so the exit code is non-zero.
var errIncorrect = errors.New("a correctness check failed")

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "run this one workload once and print the contract's JSON line")
	trace := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	seed := fs.Int64("seed", 1, "workload generator and session seed")
	secs := fs.Int("seconds", runSeconds, "measurement length; application wave counts scale with seconds/10")
	match := fs.String("match", "", "run only workloads whose name matches this regexp")
	smoke := fs.Bool("smoke", false, "1/50 of the waves: numbers meaningless, every correctness check enforced")
	runs := fs.Int("runs", 1, "untraced runs per workload; metrics report the median and quartiles")
	outPath := fs.String("out", "-", "where the full report JSON goes (- = last line of stdout)")
	traceOut := fs.String("trace-out", "", "write the traced run's spans here as obs.SpanEvent JSON lines (cmd/sftrace reads them)")
	specPath := fs.String("spec", "BENCHMARK.json", "metric bounds for -compare")
	tmpDir := fs.String("tmp", ".bench_build", "directory for WAL files, created if missing and inside the checkout by default")
	doCompare := fs.Bool("compare", false, "compare two report files: -compare old.json new.json")
	force := fs.Bool("force", false, "measure even with GOMAXPROCS < 2")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *doCompare {
		if fs.NArg() != 2 {
			return errors.New("-compare needs two report files: old.json new.json")
		}
		return runCompare(out, *specPath, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *secs < 1 || *runs < 1 {
		return errors.New("-seconds and -runs must be at least 1")
	}
	// Every recorded number so far in this repository was taken at
	// GOMAXPROCS=1; a baseline from one core would hide the parallel
	// scheduler and the in-process cluster nodes behind the driver.
	if runtime.GOMAXPROCS(0) < 2 && !*force {
		return fmt.Errorf("GOMAXPROCS is %d: refusing to produce a baseline on fewer than 2 cores (-force overrides)", runtime.GOMAXPROCS(0))
	}
	if err := os.MkdirAll(*tmpDir, 0o755); err != nil {
		return err
	}
	opt := options{seed: *seed, setups: setupsPerRun, tmpDir: *tmpDir}
	if *smoke {
		opt.setups = 1
	}

	if *workloadName != "" {
		for _, w := range workloadTable {
			if w.name == *workloadName {
				opt.traceOut = *traceOut
				return runContract(out, w.scaled(*secs, *smoke), opt, *trace == 1)
			}
		}
		return fmt.Errorf("unknown workload %q", *workloadName)
	}

	selected := workloadTable
	if *match != "" {
		re, err := regexp.Compile(*match)
		if err != nil {
			return err
		}
		selected = nil
		for _, w := range workloadTable {
			if re.MatchString(w.name) {
				selected = append(selected, w)
			}
		}
		if len(selected) == 0 {
			return fmt.Errorf("-match %q selects no workload", *match)
		}
	}
	rep := report{Env: currentEnvironment(*seed, *secs, *runs, *smoke)}
	correct := true
	for _, w := range selected {
		w = w.scaled(*secs, *smoke)
		var untraced []*outcome
		for i := 0; i < *runs; i++ {
			o, err := runUntraced(w, opt)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			untraced = append(untraced, o)
		}
		opt.traceOut = traceFile(*traceOut, w.name, len(selected) == 1)
		traced, err := runTraced(w, opt, untraced[0])
		if err != nil {
			return fmt.Errorf("%s traced: %w", w.name, err)
		}
		wr := summarize(w.name, untraced, traced)
		wr.printLines(out)
		correct = correct && wr.Correct
		rep.Workloads = append(rep.Workloads, wr)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if *outPath == "-" {
		fmt.Fprintf(out, "%s\n", data)
	} else if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if !correct {
		return errIncorrect
	}
	return nil
}

// contractMetric is one metric in the contract's result line.
type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runContract is one run of one workload under BENCHMARK.json's contract:
// the end-to-end metrics of an untraced run, or — traced — the per-layer
// metrics of a traced run next to an untraced one of the same seed. The last
// stdout line is the result object; a failed correctness check still prints
// it (correct: false) and then exits non-zero.
func runContract(out io.Writer, w workload, opt options, traced bool) error {
	defs := endToEnd
	if traced {
		opt.setups = 1 // setup_s is not a per-layer metric
	}
	o, err := runUntraced(w, opt)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if traced {
		defs = perLayer
		t, err := runTraced(w, opt, o)
		if err != nil {
			return fmt.Errorf("%s traced: %w", w.name, err)
		}
		t.Problems = append(o.Problems, t.Problems...)
		t.Attempted += o.Attempted
		t.Failed += o.Failed
		o = t
	}
	for _, p := range o.Problems {
		fmt.Fprintf(out, "%s FAILED %s\n", w.name, p)
	}
	fmt.Fprintf(out, "%s digest %s sha256\n", w.name, o.Digest)
	result := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]contractMetric `json:"metrics"`
	}{o.correct(), o.Attempted, o.Failed, make(map[string]contractMetric, len(defs))}
	for _, d := range defs {
		fmt.Fprintf(out, "%s %s %.6g %s\n", w.name, d.Name, o.Metrics[d.Name], d.Unit)
		result.Metrics[d.Name] = contractMetric{o.Metrics[d.Name], d.Unit}
	}
	data, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", data)
	if !o.correct() {
		return errIncorrect
	}
	return nil
}

func runCompare(out io.Writer, specPath, oldPath, newPath string) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	old, err := readReport(oldPath)
	if err != nil {
		return err
	}
	cur, err := readReport(newPath)
	if err != nil {
		return err
	}
	if n := compare(out, spec, old, cur); n > 0 {
		return fmt.Errorf("%d regressed", n)
	}
	return nil
}
