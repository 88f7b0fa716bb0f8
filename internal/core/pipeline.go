package core

import (
	"errors"
	"fmt"

	"smartflux/internal/engine"
	"smartflux/internal/kvstore"
	"smartflux/internal/kvstore/cluster"
	"smartflux/internal/obs"
	"smartflux/internal/workflow"
)

// PipelineConfig configures an end-to-end run: a synchronous training phase,
// model construction with the test phase, and an application phase under the
// policy — for SmartFlux itself the full lifecycle of §4.1.
type PipelineConfig struct {
	// TrainWaves is the length of the synchronous training phase.
	TrainWaves int
	// ApplyWaves is the length of the application phase.
	ApplyWaves int
	// Policy decides the application phase. nil is SmartFlux: a Session built
	// from the Session field, which learns from the training waves. Any other
	// policy learns nothing: its training waves run under engine.Sync{} — a
	// warm-up, which may be empty (TrainWaves 0) — and there is no test phase.
	// Pass it as constructed; a resume rewinds it from the checkpoint.
	Policy engine.Decider
	// Session configures the learning layer (unused when Policy is set).
	Session Config
	// Obs, when non-nil, instruments the harness (engine metrics +
	// decision trace) and the session (lifecycle metrics).
	Obs *obs.Observer
	// Parallelism bounds concurrent work in the engine instances and — when
	// Session.Parallelism is unset — the session's training tasks. 0 selects
	// runtime.GOMAXPROCS(0); 1 runs each instance's steps on one goroutine
	// and trains sequentially (Config.Parallelism), though a wave's two
	// instances still run at once (engine.Harness.ResumeRun). Results are
	// bit-identical across settings.
	Parallelism int
	// Resilience configures step timeouts, retries and degradation for
	// both engine instances (see engine.HarnessConfig; the Parallelism
	// field inside it is overridden by the pipeline's own).
	Resilience engine.HarnessConfig
	// Cluster, when non-nil, mirrors the live instance's store into a
	// sharded, replicated kvstore cluster. The client attaches once the
	// store holds what the run starts from — as built, or as recovered on
	// a resume — syncing that state, and every subsequent mutation ships
	// as a timestamped replication record, so the cluster's merged dump
	// stays bit-identical to the live store (DESIGN.md §8). The reference
	// instance is never mirrored. A ship that fails after the attach fails
	// the run: the client's Err is joined onto the pipeline's error.
	Cluster *cluster.Client
}

// PipelineResult aggregates an end-to-end run. The lifecycle is one harness
// run of TrainWaves+ApplyWaves waves in which only the decider's answer
// changes; Train and Apply are views (engine.Result.Slice) of its one result,
// each with the Policy of its own waves.
type PipelineResult struct {
	// Train covers the synchronous training waves.
	Train *engine.Result
	// Apply covers the application waves (nil when ApplyWaves is 0).
	Apply *engine.Result
	// Test is the test-phase report produced between the two.
	Test TestReport
	// Session is the session used, trained and ready for further waves. Under
	// a Policy there is neither: Session is nil and Test zero.
	Session *Session
	// Store is the live instance's store as the run left it — what a
	// mirrored cluster's Dump must equal.
	Store *kvstore.Store
}

// RunPipeline executes the full lifecycle over the workload produced by build.
// reportSteps selects the steps whose output error is measured (nil = the last
// gated step). During training the decider — the untrained session, or
// engine.Sync{} for a policy that does not learn — says "execute" for every
// step, so the live instance runs synchronously; after Train succeeds (when
// there is a session to train) the same harness run continues under the policy.
func RunPipeline(build engine.BuildFunc, reportSteps []workflow.StepID, cfg PipelineConfig) (*PipelineResult, error) {
	res, _, err := runPipeline(build, reportSteps, cfg, nil, nil)
	return res, err
}

// runPipeline is the lifecycle behind every entry point, entered under three
// conditions.
//
//   - opts == nil: nothing is journaled (RunPipeline).
//   - opts != nil, rec == nil: a fresh durable run — the initial checkpoint
//     is journaled as wave 0 before the first wave.
//   - opts != nil, rec != nil: a resume — session, stores and harness are
//     rewound to the recovered checkpoint and the journal continues from the
//     recovered wave.
//
// From there it is one body: the live store — as built or as restored — is
// attached to cfg.Cluster and registered with the journal; the training decider
// drives the harness to the end of training; the session, when it is the
// policy, is fed the knowledge base from those waves' rows and trained — unless
// it came back holding a model, accepted or not: the test phase has run — and
// the policy drives the same run to its end.
func runPipeline(build engine.BuildFunc, reportSteps []workflow.StepID, cfg PipelineConfig, opts *DurableOptions, rec *recovered) (*PipelineResult, *DurableRunInfo, error) {
	if cfg.TrainWaves < 0 || cfg.TrainWaves == 0 && cfg.Policy == nil {
		return nil, nil, fmt.Errorf("core: pipeline needs TrainWaves > 0, got %d", cfg.TrainWaves)
	}
	// The session is the one policy that trains, and decides both phases.
	var session *Session
	train, apply := engine.Decider(engine.Sync{}), cfg.Policy
	if apply == nil {
		sessionCfg := cfg.Session
		if sessionCfg.Parallelism == 0 {
			sessionCfg.Parallelism = cfg.Parallelism
		}
		session = NewSession(sessionCfg)
		if cfg.Obs != nil {
			session.Instrument(cfg.Obs)
		}
		if rec != nil && rec.cp.Session != nil {
			if err := session.RestoreCheckpoint(rec.cp.Session); err != nil {
				return nil, nil, err
			}
		}
		train, apply = session, session
	}
	c := &pipelineCommitter{session: session, policy: apply.Name(), trainWaves: cfg.TrainWaves, applyWaves: cfg.ApplyWaves}
	hcfg := cfg.Resilience
	hcfg.Parallelism = cfg.Parallelism
	if opts != nil {
		hcfg.Committer = c
	}
	harness, err := engine.NewHarnessWithConfig(build, reportSteps, hcfg)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Obs != nil {
		harness.Instrument(cfg.Obs)
	}

	var res *engine.Result // nil until the first wave has run
	if rec != nil {
		// Replay the stores, then rewind the in-memory state to the same
		// wave boundary — all before Begin compacts the restored content.
		if res, err = rec.restore(harness, apply); err != nil {
			return nil, nil, err
		}
	}
	if cfg.Cluster != nil {
		// Attach only now: replay notifies no observer, so the mirror's
		// initial sync is what carries recovered state to the cluster — a
		// fresh store and a restored one take the same path.
		if err := cfg.Cluster.Mirror(harness.Live().Store()); err != nil {
			return nil, nil, fmt.Errorf("core: cluster mirror: %w", err)
		}
	}
	if opts != nil {
		if c.mgr, err = openPipelineManager(harness, *opts); err != nil {
			return nil, nil, err
		}
	}

	err = func() error {
		if opts != nil {
			if err := c.begin(rec); err != nil {
				return err
			}
		}
		var err error
		if res == nil {
			res, err = harness.Run(cfg.TrainWaves, train)
		} else {
			err = harness.ResumeRun(res, cfg.TrainWaves-res.Waves, train)
		}
		if err != nil {
			return fmt.Errorf("pipeline training: %w", err)
		}
		if session != nil {
			if _, err := session.Predictor(); err != nil {
				for w := 0; w < cfg.TrainWaves; w++ {
					session.ObserveTrainingWave(res.RefImpacts[w], res.RefLabels[w])
				}
				if _, err := session.Train(); err != nil {
					return fmt.Errorf("pipeline train: %w", err)
				}
			}
		}
		if err := harness.ResumeRun(res, cfg.TrainWaves+cfg.ApplyWaves-res.Waves, apply); err != nil {
			return fmt.Errorf("pipeline application: %w", err)
		}
		return nil
	}()
	var info *DurableRunInfo
	if opts != nil {
		if cerr := c.mgr.Close(); err == nil {
			err = cerr
		}
		info = &DurableRunInfo{Durable: c.mgr.Stats()}
		if rec != nil {
			info.Resumed, info.Recovery = true, rec.Stats
		}
		if err != nil {
			dumpFlightRecorder(opts.Dir, opts.Obs, cfg.Obs)
		}
	}
	if cfg.Cluster != nil {
		// Ships run inside the store's observers, which cannot fail the
		// write that triggered them; a run whose copy is incomplete is not
		// a success.
		if merr := cfg.Cluster.Err(); merr != nil {
			err = errors.Join(err, fmt.Errorf("core: cluster mirror: %w", merr))
		}
	}
	if err != nil {
		return nil, info, err
	}
	// The one result carries the name of its first wave's decider; each view
	// gets its own.
	out := &PipelineResult{
		Train:   res.Slice(0, cfg.TrainWaves),
		Session: session,
		Store:   harness.Live().Store(),
	}
	out.Train.Policy = train.Name()
	if session != nil {
		out.Test = session.LastTestReport()
	}
	if cfg.ApplyWaves > 0 {
		out.Apply = res.Slice(cfg.TrainWaves, res.Waves)
		out.Apply.Policy = apply.Name()
	}
	return out, info, nil
}
