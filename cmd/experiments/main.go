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
	"os"
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

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fig := fs.String("fig", "all", "experiment to run: 3, roc, 7, 8, 9, 10, 11, 12, overhead, all")
	seed := fs.Int64("seed", 42, "deterministic seed")
	scale := fs.Float64("scale", 1, "wave-count scale factor (1 = paper-length runs)")
	jobs := fs.Int("j", 0, "concurrent (workload, bound, policy) pipeline runs: 0 = GOMAXPROCS, 1 = one at a time (output is identical either way)")
	obsAddr := fs.String("obs-addr", "", "serve /metrics, /trace/tail, /trace/spans and /debug/pprof on this address while experiments run")
	traceOut := fs.String("trace-out", "", "append decision-trace events from every pipeline as JSON lines to this file")
	spanOut := fs.String("span-out", "", "append causal spans (plus decision events) as JSON lines to this file, readable by sftrace; prefer -j 1 and a single -fig so runs don't interleave")
	if err := fs.Parse(args); err != nil {
		return err
	}

	observer, obsClose, err := buildObserver(*obsAddr, *traceOut, *spanOut, out)
	if err != nil {
		return err
	}
	defer obsClose()

	runner := experiments.NewRunner(experiments.Config{Seed: *seed, Scale: *scale, Jobs: *jobs, Obs: observer})
	selected := strings.Split(*fig, ",")
	all := *fig == "all"

	want := func(name string) bool {
		if all {
			return true
		}
		for _, s := range selected {
			if strings.TrimSpace(s) == name {
				return true
			}
		}
		return false
	}

	if err := runner.Prewarm(prewarmTargets(want)); err != nil {
		return err
	}

	ran := false
	if want("3") {
		experiments.Fig3(runner.Config()).Render(out)
		fmt.Fprintln(out)
		ran = true
	}
	if want("roc") {
		res, err := experiments.ClassifierSelection(runner, 0.20)
		if err != nil {
			return err
		}
		res.Render(out)
		fmt.Fprintln(out)
		ran = true
	}
	if want("7") {
		res, err := experiments.Fig7(runner, 0.20)
		if err != nil {
			return err
		}
		res.Render(out)
		fmt.Fprintln(out)
		ran = true
	}
	if want("8") {
		res, err := experiments.Fig8(runner)
		if err != nil {
			return err
		}
		res.Render(out)
		fmt.Fprintln(out)
		ran = true
	}
	if want("9") {
		res, err := experiments.Fig9(runner)
		if err != nil {
			return err
		}
		res.Render(out)
		fmt.Fprintln(out)
		ran = true
	}
	if want("10") {
		res, err := experiments.Fig10(runner)
		if err != nil {
			return err
		}
		res.Render(out)
		fmt.Fprintln(out)
		ran = true
	}
	if want("11") {
		res, err := experiments.Fig11(runner)
		if err != nil {
			return err
		}
		res.Render(out)
		fmt.Fprintln(out)
		ran = true
	}
	if want("12") {
		res, err := experiments.Fig12(runner)
		if err != nil {
			return err
		}
		res.Render(out)
		fmt.Fprintln(out)
		ran = true
	}
	if want("overhead") {
		for _, w := range []experiments.Workload{experiments.LRB, experiments.AQHI} {
			res, err := experiments.Overhead(runner, w)
			if err != nil {
				return err
			}
			res.Render(out)
			fmt.Fprintln(out)
		}
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *fig)
	}
	return nil
}

// buildObserver wires the -obs-addr/-trace-out/-span-out flags into one
// observer instrumenting every pipeline the runner executes; the returned
// close function flushes the JSONL files and stops the debug server. All
// three flags empty yields a nil observer (no instrumentation overhead).
func buildObserver(obsAddr, traceOut, spanOut string, out *os.File) (*obs.Observer, func(), error) {
	if obsAddr == "" && traceOut == "" && spanOut == "" {
		return nil, func() {}, nil
	}
	registry := obs.NewRegistry()
	var (
		sinks     []obs.Sink
		spanSinks []obs.SpanSink
		closers   []func()
	)
	closeAll := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return nil, closeAll, fmt.Errorf("trace-out: %w", err)
		}
		closers = append(closers, func() { _ = f.Close() })
		sinks = append(sinks, obs.NewJSONLSink(f))
	}
	if spanOut != "" {
		f, err := os.Create(spanOut)
		if err != nil {
			return nil, closeAll, fmt.Errorf("span-out: %w", err)
		}
		closers = append(closers, func() { _ = f.Close() })
		// One sink carries both record kinds so sftrace can correlate the
		// ε-spend timeline with skip decisions from a single file.
		spanl := obs.NewJSONLSink(f)
		sinks = append(sinks, spanl)
		spanSinks = append(spanSinks, spanl)
	}
	if obsAddr != "" {
		ring := obs.NewRingSink(4096)
		sinks = append(sinks, ring)
		spanRing := obs.NewSpanRing(4096)
		spanSinks = append(spanSinks, spanRing)
		srv, err := obs.StartDebugServer(obsAddr, registry, ring, spanRing)
		if err != nil {
			return nil, closeAll, fmt.Errorf("obs-addr: %w", err)
		}
		closers = append(closers, func() { _ = srv.Close() })
		fmt.Fprintf(out, "observability on http://%s (/metrics, /trace/tail, /trace/spans, /debug/pprof)\n", srv.Addr())
	}
	return obs.New(registry, sinks...).WithSpanSinks(spanSinks...), closeAll, nil
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
