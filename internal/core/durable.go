package core

// Crash durability for the full SmartFlux lifecycle. The durable pipeline
// commits one PipelineCheckpoint per completed wave into the write-ahead
// log (via durable.Manager): the harness checkpoint (tracker state,
// decision series, measurement accumulators), the session state (knowledge
// base, lifecycle phase, how much of the base the predictor was fitted on)
// and the phase lengths. ResumePipeline
// rebuilds the workload, replays the stores from the newest epoch's log,
// restores the harness and session from the last committed checkpoint and
// continues the run — producing results bit-identical to an uncrashed
// execution (DESIGN.md §11).

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"smartflux/internal/durable"
	"smartflux/internal/engine"
	"smartflux/internal/obs"
	"smartflux/internal/workflow"
)

// Store names the durable layer registers the harness instances under.
const (
	durableLiveStore = "live"
	durableRefStore  = "ref"
)

// SessionCheckpoint is the serializable state of a Session: the knowledge
// base, the lifecycle phase, the last test report and how much of the
// knowledge base the predictor was fitted on. The model itself is not in it:
// a predictor is a deterministic function of the Config and the examples it
// was fitted on, so restore fits it again (DESIGN.md §11). The Config is
// construction-time input, exactly like the engine's persisted state: a
// resumed run must build its session from the same configuration.
type SessionCheckpoint struct {
	Phase int
	KBX   [][]float64
	KBY   [][]int
	// FittedOn is how many leading knowledge-base examples the predictor was
	// fitted on; 0 means untrained. Examples logged after the fit lie beyond
	// the prefix and leave the restored model unchanged.
	FittedOn int
	Report   TestReport
}

// Checkpoint exports the session's state.
func (s *Session) Checkpoint() (*SessionCheckpoint, error) {
	// The phase lock is taken before the snapshot: whatever Train last
	// recorded was fitted on a prefix of what the knowledge base holds now.
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap := s.kb.Snapshot()
	if s.fittedOn > snap.Len() {
		return nil, fmt.Errorf("core: checkpoint: predictor fitted on %d examples but the knowledge base was reset to %d; it could not be restored", s.fittedOn, snap.Len())
	}
	return &SessionCheckpoint{
		Phase:    int(s.phase),
		KBX:      snap.X,
		KBY:      snap.Y,
		FittedOn: s.fittedOn,
		Report:   s.report,
	}, nil
}

// RestoreCheckpoint rewinds the session to an exported state; the session
// must have been built with the same Config as the exporting one. The
// predictor comes back the one way it was made — fitted on KB[:FittedOn] —
// without the test phase and without counting as a training event: report
// and phase are the checkpointed ones. On error the session is unchanged.
func (s *Session) RestoreCheckpoint(cp *SessionCheckpoint) error {
	kb := Dataset{
		X: append([][]float64(nil), cp.KBX...),
		Y: append([][]int(nil), cp.KBY...),
	}
	if len(kb.X)+len(kb.Y) > 0 {
		if err := kb.Validate(); err != nil {
			return fmt.Errorf("core: restore knowledge base: %w", err)
		}
	}
	switch {
	case cp.FittedOn < 0 || cp.FittedOn > kb.Len():
		return fmt.Errorf("core: restore: predictor fitted on %d examples, knowledge base holds %d", cp.FittedOn, kb.Len())
	case cp.FittedOn == 0 && Phase(cp.Phase) == PhaseApplication:
		return fmt.Errorf("core: restore: application-phase checkpoint records no fitted predictor (FittedOn = 0): " +
			"it was written by a build that stored the model in the checkpoint and cannot be resumed by this one")
	}
	s.mu.RLock()
	so := s.obs
	s.mu.RUnlock()
	var pred *Predictor
	if cp.FittedOn > 0 {
		var sp *obs.Span
		if so != nil {
			sp = so.o.RootSpan("restore", "restore", "ml")
		}
		var err error
		if pred, _, err = s.train(kb.Head(cp.FittedOn), false); err != nil {
			sp.EndErr(err)
			return fmt.Errorf("core: restore predictor: %w", err)
		}
		sp.SetAttr("examples", strconv.Itoa(cp.FittedOn))
		sp.End()
	}
	s.kb.mu.Lock()
	s.kb.data = kb
	s.kb.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.predictor = pred
	s.fittedOn = cp.FittedOn
	s.phase = Phase(cp.Phase)
	s.report = cp.Report
	if so != nil {
		so.phaseGauge.Set(float64(s.phase))
	}
	return nil
}

// PipelineCheckpoint is the opaque payload committed per wave: the phase
// lengths and the application policy's Name (validated on resume), the harness
// state at the boundary (nil before the first wave) and the session state —
// nil under a policy that does not learn, which is its construction plus, when
// stateful, Harness.DeciderState. The run is one result — its Waves is the
// commit wave — and whether the test phase has run is the session's to say.
type PipelineCheckpoint struct {
	TrainWaves int
	ApplyWaves int
	Policy     string
	Harness    *engine.HarnessCheckpoint
	Session    *SessionCheckpoint
}

// encodePipelineCheckpoint serializes via gob (float-bit exact, handles the
// NaN/Inf values JSON cannot).
func encodePipelineCheckpoint(cp *PipelineCheckpoint) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
		return nil, fmt.Errorf("core: encode checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// decodePipelineCheckpoint parses a committed checkpoint payload.
func decodePipelineCheckpoint(b []byte) (*PipelineCheckpoint, error) {
	var cp PipelineCheckpoint
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&cp); err != nil {
		return nil, fmt.Errorf("core: decode checkpoint: %w", err)
	}
	return &cp, nil
}

// DurableOptions configures crash durability for a run: the durability
// directory (one log file per epoch), the rotation period in waves, the flush
// policy, the crash-injection hook and the observer of the durable layer.
type DurableOptions = durable.Options

// DurableRunInfo reports what the durability layer did during a run.
type DurableRunInfo struct {
	// Resumed is true when the run continued from recovered state.
	Resumed bool
	// Recovery describes the recovery (zero value on fresh starts).
	Recovery durable.RecoveryStats
	// Durable holds the manager's cumulative counters.
	Durable durable.Stats
}

// pipelineCommitter implements engine.WaveCommitter for a durable run: it
// wraps every harness checkpoint into a PipelineCheckpoint and commits it
// under the result's wave count.
type pipelineCommitter struct {
	mgr        *durable.Manager
	session    *Session // nil under a policy that does not learn
	policy     string
	trainWaves int
	applyWaves int
}

// payload builds and encodes the pipeline checkpoint for a harness boundary
// (nil for the initial, nothing-run-yet one).
func (c *pipelineCommitter) payload(hcp *engine.HarnessCheckpoint) ([]byte, error) {
	cp := &PipelineCheckpoint{TrainWaves: c.trainWaves, ApplyWaves: c.applyWaves, Policy: c.policy, Harness: hcp}
	if c.session != nil {
		var err error
		if cp.Session, err = c.session.Checkpoint(); err != nil {
			return nil, err
		}
	}
	return encodePipelineCheckpoint(cp)
}

// CommitWave implements engine.WaveCommitter.
func (c *pipelineCommitter) CommitWave(hcp *engine.HarnessCheckpoint) error {
	blob, err := c.payload(hcp)
	if err != nil {
		return err
	}
	return c.mgr.Commit(hcp.Result.Waves, blob)
}

// begin opens the journal: at the recovered wave with the recovered payload,
// or — fresh — at wave 0 with the nothing-run-yet checkpoint.
func (c *pipelineCommitter) begin(rec *recovered) error {
	if rec != nil {
		return c.mgr.Begin(rec.Wave, rec.Payload)
	}
	blob, err := c.payload(nil)
	if err != nil {
		return err
	}
	return c.mgr.Begin(0, blob)
}

// dumpFlightRecorder writes the first non-empty flight-recorder ring among
// observers (the last N spans) to <dir>/flight.jsonl when a durable run
// exits with an error, so a crash leaves a causal trace of what was in
// flight next to the WAL it will be recovered from. Pipeline entry points
// pass both the durable-layer observer and the pipeline observer — the span
// sinks may be attached to either. Best-effort: dump failures never mask
// the run error. The durable layer's epoch GC only removes wal-*.log and
// *.tmp files, so the dump survives subsequent rotations and is overwritten
// by the next failure.
func dumpFlightRecorder(dir string, observers ...*obs.Observer) {
	for _, o := range observers {
		ring := o.Flight()
		if ring == nil || ring.Len() == 0 {
			continue
		}
		f, err := os.Create(filepath.Join(dir, "flight.jsonl"))
		if err != nil {
			return
		}
		_ = ring.Dump(f)
		_ = f.Close()
		return
	}
}

// openPipelineManager opens the durability manager and registers both
// harness stores under their recovery names.
func openPipelineManager(harness *engine.Harness, opts DurableOptions) (*durable.Manager, error) {
	mgr, err := durable.Open(opts)
	if err != nil {
		return nil, err
	}
	if err := mgr.Register(durableLiveStore, harness.Live().Store()); err != nil {
		return nil, err
	}
	if err := mgr.Register(durableRefStore, harness.Ref().Store()); err != nil {
		return nil, err
	}
	return mgr, nil
}

// recovered is the durable state found in a directory, with its last
// committed checkpoint decoded.
type recovered struct {
	*durable.Recovery
	cp *PipelineCheckpoint
}

// recoverRun replays opts.Dir (truncating any torn record); nil means the
// directory holds no durable state.
func recoverRun(opts DurableOptions) (*recovered, error) {
	rec, err := durable.Recover(opts.Dir, opts.Obs)
	if err != nil || rec == nil {
		return nil, err
	}
	cp, err := decodePipelineCheckpoint(rec.Payload)
	if err != nil {
		// The log's checksums held, so these are the bytes some build
		// committed: what changed is the shape they are decoded into.
		return nil, fmt.Errorf("%w: %s was written by an older build, one that kept tracker baselines as element lists, or report steps' fresh outputs as element lists (or, older still, kept two baselines per tracker and step state in a map keyed by step), and cannot be resumed by this one", err, opts.Dir)
	}
	return &recovered{Recovery: rec, cp: cp}, nil
}

// restore replays both stores and rewinds harness and decider to the
// recovered checkpoint (the session is rewound by runPipeline). It returns the
// result to continue appending to: nil when no wave had been committed.
func (r *recovered) restore(harness *engine.Harness, decider engine.Decider) (*engine.Result, error) {
	if err := r.Apply(durableLiveStore, harness.Live().Store()); err != nil {
		return nil, err
	}
	if err := r.Apply(durableRefStore, harness.Ref().Store()); err != nil {
		return nil, err
	}
	if r.cp.Harness == nil {
		return nil, nil
	}
	return harness.RestoreCheckpoint(r.cp.Harness, decider)
}

// RunPipelineDurable is RunPipeline with crash durability: every completed
// wave is committed to the write-ahead log under opts.Dir, which is
// periodically rotated to a compacted epoch. The directory must not already
// hold durable state (use ResumePipeline to continue a crashed run).
func RunPipelineDurable(build engine.BuildFunc, reportSteps []workflow.StepID, cfg PipelineConfig, opts DurableOptions) (*PipelineResult, *DurableRunInfo, error) {
	rec, err := recoverRun(opts)
	if err != nil {
		return nil, nil, err
	}
	if rec != nil {
		return nil, nil, fmt.Errorf("core: %s already holds durable state at wave %d; resume it (ResumePipeline / -resume) or point -wal-dir elsewhere", opts.Dir, rec.Wave)
	}
	return runPipeline(build, reportSteps, cfg, &opts, nil)
}

// ResumePipeline continues a crashed durable pipeline: it recovers the
// stores from the newest epoch's log (truncating any torn record),
// restores the harness and session from the last committed checkpoint and
// runs the remaining waves. cfg must match the original run (same workload,
// same phase lengths, same session configuration); the results are
// bit-identical to an uncrashed RunPipelineDurable.
func ResumePipeline(build engine.BuildFunc, reportSteps []workflow.StepID, cfg PipelineConfig, opts DurableOptions) (*PipelineResult, *DurableRunInfo, error) {
	rec, err := recoverRun(opts)
	if err != nil {
		return nil, nil, err
	}
	if rec == nil {
		return nil, nil, fmt.Errorf("core: no durable state in %s to resume", opts.Dir)
	}
	if rec.cp.TrainWaves != cfg.TrainWaves || rec.cp.ApplyWaves != cfg.ApplyWaves {
		return nil, nil, fmt.Errorf("core: checkpoint is a %d+%d wave run, config wants %d+%d",
			rec.cp.TrainWaves, rec.cp.ApplyWaves, cfg.TrainWaves, cfg.ApplyWaves)
	}
	want := sessionPolicy
	if cfg.Policy != nil {
		want = cfg.Policy.Name()
	}
	// A directory written before the policy was recorded names none: the
	// session's was the only one journaled.
	if wrote := cmp.Or(rec.cp.Policy, sessionPolicy); wrote != want {
		return nil, nil, fmt.Errorf("core: %s was written under policy %q, config runs policy %q", opts.Dir, wrote, want)
	}
	// The commit wave is the result's wave count in every directory this build
	// wrote; one that kept the training result apart counted application waves
	// from zero and would read as a run still in training.
	waves := 0
	if h := rec.cp.Harness; h != nil && h.Result != nil {
		waves = h.Result.Waves
	}
	if waves != rec.Wave {
		return nil, nil, fmt.Errorf("core: %s is committed at wave %d but its checkpointed result holds %d waves: "+
			"it was written by a build that kept the training result apart from the application result and cannot be resumed by this one",
			opts.Dir, rec.Wave, waves)
	}
	return runPipeline(build, reportSteps, cfg, &opts, rec)
}
