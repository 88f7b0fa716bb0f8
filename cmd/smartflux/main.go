// Command smartflux runs one of the built-in workloads under a chosen
// triggering policy and reports resource usage and bound compliance.
//
//	smartflux -workload lrb -bound 0.05 -policy smartflux -train 500 -apply 500
//	smartflux -workload aqhi -policy seq3 -train 336 -apply 384
//	smartflux -workload firerisk -policy sync -train 0
//
// Policies: smartflux (learns from the training waves), sync, random, seqN,
// oracle. Every policy is the same run: -train synchronous waves, then -apply
// waves under the policy, journaled with -wal-dir, mirrored with -cluster.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"smartflux"
	"smartflux/internal/experiments"
	"smartflux/internal/kvstore/cluster"
	"smartflux/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "smartflux:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("smartflux", flag.ContinueOnError)
	workload := fs.String("workload", "aqhi", "workload: lrb, aqhi, firerisk")
	bound := fs.Float64("bound", 0.10, "maximum tolerated output error (maxε)")
	policy := fs.String("policy", "smartflux", "triggering policy: smartflux, sync, random, seqN, oracle")
	train := fs.Int("train", 336, "synchronous waves before the policy decides: smartflux learns from them, any other policy only starts warm (0 = cold start)")
	apply := fs.Int("apply", 384, "application waves under the policy")
	seed := fs.Int64("seed", 42, "deterministic seed")
	parallelism := fs.Int("parallelism", 0, "training tasks run at once when the model is fitted: 0 = GOMAXPROCS, 1 = sequential (results are identical either way)")
	obsAddr := fs.String("obs-addr", "", "serve /metrics, /trace/tail, /trace/spans and /debug/pprof on this address (e.g. 127.0.0.1:8080)")
	traceOut := fs.String("trace-out", "", "append decision-trace events as JSON lines to this file")
	spanOut := fs.String("span-out", "", "append causal spans (plus decision events) as JSON lines to this file, readable by sftrace")
	stepTimeout := fs.Duration("step-timeout", 0, "per-step execution timeout (0 = unbounded)")
	retryMax := fs.Int("retry-max", 0, "extra attempts a failed or timed-out step gets within a wave")
	retryBackoff := fs.Duration("retry-backoff", 10*time.Millisecond, "base delay between step retries (doubles per attempt, seeded jitter)")
	retryWaves := fs.Int("retry-waves", 0, "times a failed wave, rewound to its pre-wave state, or a failed measure pass is re-run")
	degrade := fs.Bool("degrade", false, "forcibly skip gated steps that exhaust their retries instead of failing the run")
	clusterShards := fs.Int("cluster", 0, "mirror the live store into an in-process replicated cluster with this many shards and verify dump equality at the end of the run")
	walDir := fs.String("wal-dir", "", "enable crash durability: one write-ahead log file per epoch in this directory")
	snapEvery := fs.Int("snapshot-every", 64, "waves between log rotations to a fresh, compacted epoch (with -wal-dir)")
	fsyncFlag := fs.String("fsync", "commit", "WAL flush policy with -wal-dir: commit, never")
	resume := fs.Bool("resume", false, "continue a crashed run from the -wal-dir state instead of starting fresh")
	if err := fs.Parse(args); err != nil {
		return err
	}
	decider, err := experiments.Policy(*policy, *seed)
	if err != nil {
		return err
	}
	var fsyncMode smartflux.FsyncMode
	if *walDir != "" {
		if fsyncMode, err = smartflux.ParseFsyncMode(*fsyncFlag); err != nil {
			return err
		}
	} else if *resume {
		return fmt.Errorf("-resume requires -wal-dir")
	}
	resilience := smartflux.HarnessConfig{
		StepTimeout:  *stepTimeout,
		StepRetries:  *retryMax,
		RetryBackoff: *retryBackoff,
		RetrySeed:    *seed + 23,
		DegradeGated: *degrade,
		WaveRetries:  *retryWaves,
	}

	build, report, err := experiments.Recipe(experiments.Workload(*workload), *seed, *bound)
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

	var mirror *cluster.Client
	if *clusterShards > 0 {
		local, err := cluster.StartLocal(*clusterShards, true, nil)
		if err != nil {
			return err
		}
		defer local.Close()
		if mirror, err = cluster.New(cluster.Config{Map: local.Map}); err != nil {
			return err
		}
		defer func() { _ = mirror.Close() }() // teardown at exit
	}

	cfg := smartflux.PipelineConfig{
		TrainWaves:  *train,
		ApplyWaves:  *apply,
		Policy:      decider,
		Session:     experiments.Session(*seed),
		Obs:         observer,
		Parallelism: *parallelism,
		Resilience:  resilience,
		Cluster:     mirror,
	}
	var (
		res  *smartflux.PipelineResult
		info *smartflux.DurableRunInfo
	)
	steps := []smartflux.StepID{report}
	opts := smartflux.DurableOptions{
		Dir:           *walDir,
		SnapshotEvery: *snapEvery,
		Fsync:         fsyncMode,
		Obs:           observer,
	}
	switch {
	case *walDir == "":
		res, err = smartflux.RunPipeline(build, steps, cfg)
	case *resume:
		res, info, err = smartflux.ResumePipeline(build, steps, cfg, opts)
	default:
		res, info, err = smartflux.RunPipelineDurable(build, steps, cfg, opts)
	}
	if err != nil {
		return err
	}
	// The header names the policy the result records: the application phase's,
	// or with -apply 0 the warm-up's, which is then all that ran.
	phase := res.Apply
	if phase == nil {
		phase = res.Train
	}
	fmt.Fprintf(out, "%s @ %.0f%% bound, policy %s\n", *workload, *bound*100, phase.Policy)
	if res.Session != nil {
		macro := res.Test.Macro()
		fmt.Fprintf(out, "  test phase: accuracy %.3f precision %.3f recall %.3f auc %.3f\n",
			macro.Accuracy, macro.Precision, macro.Recall, macro.AUC)
	}
	printDurability(out, info)
	printResult(out, res.Apply, report)
	printDecisionSummary(out, observer.Metrics())
	return verifyMirror(out, mirror, res.Store)
}

// printDurability reports what the durability layer did: the one-line
// recovery summary on resumed runs, then the WAL tallies.
func printDurability(out io.Writer, info *smartflux.DurableRunInfo) {
	if info == nil {
		return
	}
	if info.Resumed {
		r := info.Recovery
		fmt.Fprintf(out, "  recovered: wave %d from epoch %d (%d records replayed, %d discarded, %d bytes truncated) in %s\n",
			r.Wave, r.Epoch, r.Replayed, r.Discarded, r.TruncatedBytes, r.Duration.Round(time.Microsecond))
	}
	fmt.Fprintf(out, "  durability: %d WAL appends, %d fsyncs, %d commits, %d rotations\n",
		info.Durable.Appends, info.Durable.Fsyncs, info.Durable.Commits, info.Durable.Snapshots)
}

// printDecisionSummary reports exec/skip counts and the p95 decision latency
// collected by the observer, if one was attached.
func printDecisionSummary(out io.Writer, reg *smartflux.MetricsRegistry) {
	if reg == nil {
		return
	}
	snap := reg.Snapshot()
	execs := snap.Counters[`smartflux_engine_decisions_total{verdict="exec"}`]
	skips := snap.Counters[`smartflux_engine_decisions_total{verdict="skip"}`]
	lat := snap.Histograms["smartflux_engine_decision_latency_seconds"]
	fmt.Fprintf(out, "  decisions: %d exec, %d skip; p95 decision latency %.1fµs\n",
		execs, skips, lat.P95*1e6)
	retries := snap.Counters["smartflux_engine_step_retries_total"]
	degraded := snap.Counters["smartflux_engine_steps_degraded_total"]
	waveRetries := snap.Counters["smartflux_engine_wave_retries_total"]
	if retries+degraded+waveRetries > 0 {
		fmt.Fprintf(out, "  resilience: %d step retries, %d degraded steps, %d wave retries\n",
			retries, degraded, waveRetries)
	}
}

// printResult renders one harness result (nothing for a pipeline run with
// -apply 0, which has no application phase).
func printResult(out io.Writer, res *smartflux.Result, step smartflux.StepID) {
	if res == nil {
		return
	}
	fmt.Fprintf(out, "  executions: %d live, %d optimal, %d sync (%.0f%% saved)\n",
		res.TotalLiveExecutions(), res.TotalOptimalExecutions(),
		res.TotalSyncExecutions(), res.SavingsRatio()*100)
	report, ok := res.Reports[step]
	if !ok {
		return
	}
	conf := report.Confidence()
	fmt.Fprintf(out, "  %s: %d violations in %d waves (confidence %.1f%%)\n",
		step, report.ViolationCount(), len(report.Measured), conf[len(conf)-1]*100)
}
