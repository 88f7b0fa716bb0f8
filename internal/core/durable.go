package core

// Crash durability for the full SmartFlux lifecycle. The durable pipeline
// commits one PipelineCheckpoint per completed wave into the write-ahead
// log (via durable.Manager): the phase lengths, the policy's name and the
// harness checkpoint (tracker state, decision series, measurement
// accumulators). ResumePipeline rebuilds the workload, replays the stores
// from the newest epoch's log, restores the harness from the last committed
// checkpoint and continues the run — training the session from the restored
// result's training waves, as a fresh run does — producing results
// bit-identical to an uncrashed execution (DESIGN.md §6).

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"

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
// knowledge base the predictor was fitted on. It is the frozen benchmark's
// (bench/ journals it beside its own run); the pipeline checkpoint holds no
// session. Delete it and Session.Checkpoint with ROADMAP.md item 4.
type SessionCheckpoint struct {
	Phase int
	KBX   [][]float64
	KBY   [][]int
	// FittedOn is how many leading knowledge-base examples the predictor was
	// fitted on; 0 means untrained.
	FittedOn int
	Report   TestReport
}

// Checkpoint exports the session's state, read under one hold of the
// session lock: FittedOn is a prefix of the examples it carries. The error is
// always nil. It is the frozen benchmark's; delete it with ROADMAP.md item 4.
//
//sflint:ignore unused only bench/ calls it; bench/ is frozen until ROADMAP item 4, and item 13(b) deletes it after
func (s *Session) Checkpoint() (*SessionCheckpoint, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	kb := s.kb.clone()
	return &SessionCheckpoint{
		Phase:    int(s.phase),
		KBX:      kb.X,
		KBY:      kb.Y,
		FittedOn: s.fittedOn,
		Report:   s.report,
	}, nil
}

// PipelineCheckpoint is the opaque payload committed per wave: the phase
// lengths and the application policy's Name (validated on resume) and the
// harness state at the boundary (nil before the first wave). The run is one
// result — its Waves is the commit wave. No policy state is in it: a model is
// a deterministic function of the session's Config and the result's training
// waves, so every run, fresh or resumed, trains it from rows [:TrainWaves],
// and every other policy decides from its construction and its arguments.
type PipelineCheckpoint struct {
	TrainWaves int
	ApplyWaves int
	Policy     string
	Harness    *engine.HarnessCheckpoint
}

// checkpointMagic and checkpointVersion head every committed checkpoint
// payload, the version as one byte; decodePipelineCheckpoint checks both
// before gob reads a byte. A change to PipelineCheckpoint's shape bumps the
// version, so a directory journaled in any other format is refused with one
// error.
const (
	checkpointMagic   = "smartflux-checkpoint"
	checkpointVersion = 2
)

// encodePipelineCheckpoint writes the format tag, then the checkpoint via gob
// (float-bit exact, handles the NaN/Inf values JSON cannot).
func encodePipelineCheckpoint(cp *PipelineCheckpoint) ([]byte, error) {
	buf := bytes.NewBufferString(checkpointMagic)
	buf.WriteByte(checkpointVersion)
	if err := gob.NewEncoder(buf).Encode(cp); err != nil {
		return nil, fmt.Errorf("core: encode checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// decodePipelineCheckpoint parses a committed checkpoint payload, refusing
// one not tagged with this build's format.
func decodePipelineCheckpoint(b []byte) (*PipelineCheckpoint, error) {
	body, ok := bytes.CutPrefix(b, []byte(checkpointMagic))
	if !ok || len(body) == 0 || body[0] != checkpointVersion {
		return nil, fmt.Errorf("core: checkpoint is not in format %s v%d: another build wrote it", checkpointMagic, checkpointVersion)
	}
	var cp PipelineCheckpoint
	if err := gob.NewDecoder(bytes.NewReader(body[1:])).Decode(&cp); err != nil {
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
	policy     string
	trainWaves int
	applyWaves int
}

// payload encodes the pipeline checkpoint for a harness boundary (nil for the
// initial, nothing-run-yet one).
func (c *pipelineCommitter) payload(hcp *engine.HarnessCheckpoint) ([]byte, error) {
	return encodePipelineCheckpoint(&PipelineCheckpoint{TrainWaves: c.trainWaves, ApplyWaves: c.applyWaves, Policy: c.policy, Harness: hcp})
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
		return nil, fmt.Errorf("%w; %s cannot be resumed by this build", err, opts.Dir)
	}
	return &recovered{Recovery: rec, cp: cp}, nil
}

// restore replays both stores and rewinds the harness to the recovered
// checkpoint. It returns the result to continue appending to: nil
// when no wave had been committed.
func (r *recovered) restore(harness *engine.Harness) (*engine.Result, error) {
	if err := r.Apply(durableLiveStore, harness.Live().Store()); err != nil {
		return nil, err
	}
	if err := r.Apply(durableRefStore, harness.Ref().Store()); err != nil {
		return nil, err
	}
	if r.cp.Harness == nil {
		return nil, nil
	}
	return harness.RestoreCheckpoint(r.cp.Harness)
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
// restores the harness from the last committed checkpoint and runs the
// remaining waves, training the session as a fresh run does. cfg must match
// the original run (same workload, same phase lengths, same session
// configuration); the results are bit-identical to an uncrashed
// RunPipelineDurable.
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
	if rec.cp.Policy != want {
		return nil, nil, fmt.Errorf("core: %s was written under policy %q, config runs policy %q", opts.Dir, rec.cp.Policy, want)
	}
	// The commit wave is the result's wave count.
	waves := 0
	if h := rec.cp.Harness; h != nil && h.Result != nil {
		waves = h.Result.Waves
	}
	if waves != rec.Wave {
		return nil, nil, fmt.Errorf("core: %s is committed at wave %d but its checkpointed result holds %d waves", opts.Dir, rec.Wave, waves)
	}
	return runPipeline(build, reportSteps, cfg, &opts, rec)
}
