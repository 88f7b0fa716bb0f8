// Command experiments regenerates the tables and figures of the paper's
// evaluation section (§5). Select an experiment with -fig:
//
//	experiments -fig 3         # Figure 3 sensor series
//	experiments -fig roc       # §3.2 classifier selection table
//	experiments -fig 7         # correlation panels + Pearson r
//	experiments -fig 8         # learning curves
//	experiments -fig 9         # measured vs predicted errors
//	experiments -fig 10        # confidence curves
//	experiments -fig 11        # policy comparison
//	experiments -fig 12        # resource savings
//	experiments -fig overhead  # §5.3 overhead
//	experiments -fig all       # everything
//
// -scale shrinks wave counts for quick runs (e.g. -scale 0.2); -seed makes
// alternative deterministic universes; -j fans out independent (workload,
// bound, policy) pipeline runs across that many goroutines without changing
// any figure's output.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"smartflux/internal/experiments"
	"smartflux/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) (err error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fig := fs.String("fig", "all", "experiment to run: 3, roc, 7, 8, 9, 10, 11, 12, overhead, all (or a comma-separated list)")
	seed := fs.Int64("seed", 42, "deterministic seed")
	scale := fs.Float64("scale", 1, "wave-count scale factor (1 = paper-length runs)")
	jobs := fs.Int("j", 0, "concurrent (workload, bound, policy) pipeline runs: 0 = GOMAXPROCS, 1 = one at a time (output is identical either way)")
	obsAddr := fs.String("obs-addr", "", "serve /metrics, /trace/tail, /trace/spans and /debug/pprof on this address while experiments run")
	traceOut := fs.String("trace-out", "", "append decision-trace events from every pipeline as JSON lines to this file")
	spanOut := fs.String("span-out", "", "append causal spans (plus decision events) as JSON lines to this file, readable by sftrace; prefer -j 1 and a single -fig so runs don't interleave")
	if err := fs.Parse(args); err != nil {
		return err
	}
	want, err := selectFigures(*fig)
	if err != nil {
		return err
	}

	observer, closeObs, err := obs.Open(*obsAddr, *traceOut, *spanOut, out)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeObs(); err == nil {
			err = cerr
		}
	}()

	runner := experiments.NewRunner(experiments.Config{Seed: *seed, Scale: *scale, Jobs: *jobs, Obs: observer})
	if err := runner.Prewarm(prewarmTargets(want)); err != nil {
		return err
	}
	for _, f := range figures {
		if !want(f.name) {
			continue
		}
		results, err := f.run(runner)
		if err != nil {
			return err
		}
		for _, res := range results {
			res.Render(out)
			fmt.Fprintln(out)
		}
	}
	return nil
}

// renderer is what every experiment returns: a result that prints itself.
type renderer interface{ Render(io.Writer) }

// figure is one -fig name: the experiment it runs, and the results it prints.
type figure struct {
	name string
	run  func(*experiments.Runner) ([]renderer, error)
}

// figures lists every experiment in the order a selection prints them.
var figures = []figure{
	{"3", func(r *experiments.Runner) ([]renderer, error) {
		return []renderer{experiments.Fig3(r.Config())}, nil
	}},
	{"roc", one(func(r *experiments.Runner) (*experiments.ROCResult, error) {
		return experiments.ClassifierSelection(r, 0.20)
	})},
	{"7", one(func(r *experiments.Runner) (*experiments.Fig7Result, error) {
		return experiments.Fig7(r, 0.20)
	})},
	{"8", one(experiments.Fig8)},
	{"9", one(experiments.Fig9)},
	{"10", one(experiments.Fig10)},
	{"11", one(experiments.Fig11)},
	{"12", one(experiments.Fig12)},
	{"overhead", func(r *experiments.Runner) ([]renderer, error) {
		var results []renderer
		for _, w := range []experiments.Workload{experiments.LRB, experiments.AQHI} {
			res, err := experiments.Overhead(r, w)
			if err != nil {
				return nil, err
			}
			results = append(results, res)
		}
		return results, nil
	}},
}

// one adapts an experiment with a single result to a figures entry.
func one[T renderer](fig func(*experiments.Runner) (T, error)) func(*experiments.Runner) ([]renderer, error) {
	return func(r *experiments.Runner) ([]renderer, error) {
		res, err := fig(r)
		if err != nil {
			return nil, err
		}
		return []renderer{res}, nil
	}
}

// selectFigures resolves -fig — "all" or a comma-separated list of names —
// to a membership test, rejecting any unknown name before anything runs.
func selectFigures(fig string) (func(string) bool, error) {
	if fig == "all" {
		return func(string) bool { return true }, nil
	}
	selected := map[string]bool{}
	for _, name := range strings.Split(fig, ",") {
		name = strings.TrimSpace(name)
		if !slices.ContainsFunc(figures, func(f figure) bool { return f.name == name }) {
			return nil, fmt.Errorf("unknown experiment %q", name)
		}
		selected[name] = true
	}
	return func(name string) bool { return selected[name] }, nil
}

// prewarmTargets lists every pipeline the selected figures will request — the
// SmartFlux run of a (workload, bound), and for Figure 11 every policy's at its
// bound — so Runner.Prewarm can fan them out under -j before the figures render
// sequentially. Duplicate targets are harmless: the runner's cache collapses
// them onto one run.
func prewarmTargets(want func(string) bool) []experiments.Target {
	bounds := map[float64]bool{}
	if want("roc") || want("7") {
		bounds[0.20] = true
	}
	if want("8") || want("9") || want("10") || want("12") {
		for _, b := range experiments.Bounds {
			bounds[b] = true
		}
	}
	var targets []experiments.Target
	for _, w := range []experiments.Workload{experiments.LRB, experiments.AQHI} {
		for _, b := range experiments.Bounds {
			if bounds[b] {
				targets = append(targets, experiments.Target{Workload: w, Bound: b, Policy: experiments.SmartFlux})
			}
		}
		if want("11") {
			for _, p := range experiments.Fig11Policies {
				targets = append(targets, experiments.Target{Workload: w, Bound: 0.05, Policy: p})
			}
		}
	}
	return targets
}
