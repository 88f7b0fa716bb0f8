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

// PipelineConfig configures an end-to-end SmartFlux run: a synchronous
// training phase, model construction with the test phase, and an adaptive
// application phase — the full lifecycle of §4.1.
type PipelineConfig struct {
	// TrainWaves is the length of the synchronous training phase.
	TrainWaves int
	// ApplyWaves is the length of the adaptive application phase.
	ApplyWaves int
	// Session configures the learning layer.
	Session Config
	// Obs, when non-nil, instruments the harness (engine metrics +
	// decision trace) and the session (lifecycle metrics).
	Obs *obs.Observer
	// Parallelism bounds concurrent work in the engine instances and — when
	// Session.Parallelism is unset — the session's training. 0 selects
	// runtime.GOMAXPROCS(0), 1 runs sequentially; results are bit-identical
	// across settings.
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
	// stays bit-identical to the live store (DESIGN.md §14). The reference
	// instance is never mirrored. A ship that fails after the attach fails
	// the run: the client's Err is joined onto the pipeline's error.
	Cluster *cluster.Client
}

// PipelineResult aggregates an end-to-end run.
type PipelineResult struct {
	// Train covers the synchronous training waves.
	Train *engine.Result
	// Apply covers the adaptive application waves.
	Apply *engine.Result
	// Test is the test-phase report produced between the two.
	Test TestReport
	// Session is the session used, trained and ready for further waves.
	Session *Session
	// Store is the live instance's store as the run left it — what a
	// mirrored cluster's Dump must equal.
	Store *kvstore.Store
}

// RunPipeline executes the full SmartFlux lifecycle over the workload
// produced by build. reportSteps selects the steps whose output error is
// measured (nil = the last gated step). During training the session decides
// "execute" for every step, so the live instance runs synchronously; after
// Train succeeds the same harness continues under the predictor.
func RunPipeline(build engine.BuildFunc, reportSteps []workflow.StepID, cfg PipelineConfig) (*PipelineResult, error) {
	res, _, err := runPipeline(build, reportSteps, cfg, nil, nil)
	return res, err
}

// runPipeline is the session's half of the lifecycle: it builds (and, on a
// resume, rewinds) the learning session, has drive run the training waves
// under it, and continues with finishPipeline.
func runPipeline(build engine.BuildFunc, reportSteps []workflow.StepID, cfg PipelineConfig, opts *DurableOptions, rec *recovered) (*PipelineResult, *DurableRunInfo, error) {
	if cfg.TrainWaves <= 0 {
		return nil, nil, fmt.Errorf("core: pipeline needs TrainWaves > 0, got %d", cfg.TrainWaves)
	}
	sessionCfg := cfg.Session
	if sessionCfg.Parallelism == 0 {
		sessionCfg.Parallelism = cfg.Parallelism
	}
	session := NewSession(sessionCfg)
	if cfg.Obs != nil {
		session.Instrument(cfg.Obs)
	}
	if rec != nil && rec.cp.Session != nil {
		if err := session.RestoreCheckpoint(rec.cp.Session); err != nil {
			return nil, nil, err
		}
	}
	hcfg := cfg.Resilience
	hcfg.Parallelism = cfg.Parallelism
	c := &pipelineCommitter{session: session, mirror: cfg.Cluster, phase: phaseLabelTraining, trainWaves: cfg.TrainWaves, applyWaves: cfg.ApplyWaves}
	var res *PipelineResult
	_, info, err := drive(build, reportSteps, hcfg, cfg.Obs, c, session,
		func(harness *engine.Harness, trainRes, applyRes *engine.Result) (err error) {
			res, err = finishPipeline(harness, session, cfg, c, trainRes, applyRes)
			return err
		}, opts, rec)
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
	return res, info, nil
}

// drive is the one lifecycle driver behind every Run*/Resume* entry point: a
// state machine entered under three conditions.
//
//   - opts == nil: nothing is journaled (RunPipeline).
//   - opts != nil, rec == nil: a fresh durable run — the initial checkpoint
//     is journaled as wave 0 before the first wave.
//   - opts != nil, rec != nil: a resume — both stores are replayed, harness
//     and decider are rewound to the recovered checkpoint, and the journal
//     continues from the recovered wave.
//
// From there it is one body: the live store — as built or as restored — is
// attached to c.mirror and registered with the journal, then what is left of
// the c.trainWaves waves of phase c.phase runs under decider — returned as
// the first result — then after, which gets the restored application result
// (nil when that phase has not started). A bare harness run has no after; c
// describes the run either way and receives the wave commits when opts is
// set.
func drive(build engine.BuildFunc, reportSteps []workflow.StepID, hcfg engine.HarnessConfig, o *obs.Observer, c *pipelineCommitter, decider engine.Decider,
	after func(harness *engine.Harness, trainRes, applyRes *engine.Result) error, opts *DurableOptions, rec *recovered) (*engine.Result, *DurableRunInfo, error) {
	if opts != nil {
		hcfg.Committer = c
	}
	harness, err := engine.NewHarnessWithConfig(build, reportSteps, hcfg)
	if err != nil {
		return nil, nil, err
	}
	if o != nil {
		harness.Instrument(o)
	}

	var trainRes, applyRes *engine.Result
	if rec != nil {
		// Replay the stores, then rewind the in-memory state to the same
		// wave boundary — all before Begin compacts the restored content.
		if trainRes, applyRes, err = rec.restore(harness, decider); err != nil {
			return nil, nil, err
		}
	}
	if c.mirror != nil {
		// Attach only now: replay notifies no observer, so the mirror's
		// initial sync is what carries recovered state to the cluster — a
		// fresh store and a restored one take the same path.
		if err := c.mirror.Mirror(harness.Live().Store()); err != nil {
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
		trainRes, err = runPhase(harness, trainRes, c.trainWaves, decider)
		if after == nil {
			return err
		}
		if err != nil {
			return fmt.Errorf("pipeline training: %w", err)
		}
		return after(harness, trainRes, applyRes)
	}()
	var info *DurableRunInfo
	if opts != nil {
		info = &DurableRunInfo{Durable: c.mgr.Stats()}
		if rec != nil {
			info.Resumed, info.Recovery = true, rec.Stats
		}
		if cerr := c.mgr.Close(); err == nil && cerr != nil {
			err = cerr
		}
		if err == nil {
			info.Durable = c.mgr.Stats()
		} else {
			dumpFlightRecorder(opts.Dir, opts.Obs, o)
		}
	}
	if err != nil {
		return nil, info, err
	}
	return trainRes, info, nil
}

// runPhase runs what is left of a phase of `waves` waves: all of it into a
// fresh result, or the remainder appended to a restored one.
func runPhase(harness *engine.Harness, res *engine.Result, waves int, decider engine.Decider) (*engine.Result, error) {
	if res == nil {
		return harness.Run(waves, decider)
	}
	if remaining := waves - res.Waves; remaining > 0 {
		return res, harness.ResumeRun(res, remaining, decider)
	}
	return res, nil
}

// finishPipeline runs everything after the training waves: knowledge-base
// feeding and model training (unless the restored session already holds the
// model — accepted or not, the test phase has run), then what is left of the
// application waves.
func finishPipeline(harness *engine.Harness, session *Session, cfg PipelineConfig, committer *pipelineCommitter, trainRes, applyRes *engine.Result) (*PipelineResult, error) {
	var report TestReport
	if _, err := session.Predictor(); err == nil {
		report = session.LastTestReport()
	} else {
		for w := range trainRes.RefImpacts {
			session.ObserveTrainingWave(trainRes.RefImpacts[w], trainRes.RefLabels[w])
		}
		var err error
		report, err = session.Train()
		if err != nil {
			return nil, fmt.Errorf("pipeline train: %w", err)
		}
	}

	committer.enterApplication(trainRes)
	if applyRes != nil || cfg.ApplyWaves > 0 {
		var err error
		applyRes, err = runPhase(harness, applyRes, cfg.ApplyWaves, session)
		if err != nil {
			return nil, fmt.Errorf("pipeline application: %w", err)
		}
	}
	return &PipelineResult{
		Train:   trainRes,
		Apply:   applyRes,
		Test:    report,
		Session: session,
		Store:   harness.Live().Store(),
	}, nil
}
