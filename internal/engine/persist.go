package engine

// Harness and instance persistence: exported, serialization-friendly
// checkpoint forms and the wave-boundary commit hook the durability layer
// plugs into. A HarnessCheckpoint captures everything a crashed process
// needs to continue the run with identical decisions: both instances'
// tracker and bookkeeping state, the measurement accumulators, the result
// series so far, and (for stateful policies) the decider's state.

import (
	"encoding/binary"
	"fmt"
	"slices"

	"smartflux/internal/metric"
)

// StepPersist is one step's persisted bookkeeping: execution counters plus
// the full state of its impact and shadow-error trackers (the ε/ι accounting
// the QoD guarantee depends on).
type StepPersist struct {
	LastExecWave int // -1 until the step has executed
	ExecCount    int
	Impacts      []metric.PersistedTracker
	Errors       []metric.PersistedTracker
}

// InstancePersist is the persisted state of one engine instance. Steps is in
// the instance's topological order: a step is identified by its position, so
// the encoded form is a function of the state alone.
type InstancePersist struct {
	Wave    int
	Impacts []float64
	Steps   []StepPersist
}

// PersistState exports the instance's complete mutable state in
// serialization-friendly form, copied: the instance never writes what it
// returns. The workflow wiring, store and configuration are construction-time
// inputs and not included: the state is restored into an instance built from
// the same workload.
func (in *Instance) PersistState() InstancePersist {
	p := InstancePersist{
		Wave:    in.wave,
		Impacts: append([]float64(nil), in.impacts...),
		Steps:   make([]StepPersist, len(in.order)),
	}
	for pos, st := range in.states {
		sp := StepPersist{
			LastExecWave: st.exec.lastWave,
			ExecCount:    st.exec.count,
			Impacts:      make([]metric.PersistedTracker, len(st.impactTrackers)),
			Errors:       make([]metric.PersistedTracker, len(st.errorTrackers)),
		}
		for i, t := range st.impactTrackers {
			sp.Impacts[i] = t.Persist()
		}
		for i, t := range st.errorTrackers {
			sp.Errors[i] = t.Persist()
		}
		p.Steps[pos] = sp
	}
	return p
}

// checkPersisted reports whether a persisted state has the shape of the
// instance's workflow — a resumed run must be built from the same workload
// definition — and whether every tracker baseline is one a tracker can
// compare against: as many values as keys, keys strictly increasing.
func (in *Instance) checkPersisted(p InstancePersist) error {
	if len(p.Impacts) != len(in.impacts) || len(p.Steps) != len(in.states) {
		return fmt.Errorf("engine: persisted state has %d gated impacts and %d steps, instance has %d and %d",
			len(p.Impacts), len(p.Steps), len(in.impacts), len(in.order))
	}
	for pos, st := range in.states {
		sp := p.Steps[pos]
		if len(sp.Impacts) != len(st.impactTrackers) || len(sp.Errors) != len(st.errorTrackers) {
			return fmt.Errorf("engine: persisted tracker shape mismatch for step %q", st.step.ID)
		}
		for _, tr := range slices.Concat(sp.Impacts, sp.Errors) {
			if err := checkBaseline(tr.Baseline); err != nil {
				return fmt.Errorf("engine: persisted baseline of step %q: %w", st.step.ID, err)
			}
		}
	}
	return nil
}

// checkBaseline reports why c cannot be a state a metric compares against — a
// tracker baseline or a measure's fresh output — if it cannot.
func checkBaseline(c metric.Columns) error {
	if len(c.Keys) != len(c.Vals) {
		return fmt.Errorf("%d keys, %d values", len(c.Keys), len(c.Vals))
	}
	for i := 1; i < len(c.Keys); i++ {
		if c.Keys[i-1] >= c.Keys[i] {
			return fmt.Errorf("key %q does not follow %q", c.Keys[i], c.Keys[i-1])
		}
	}
	return nil
}

// applyPersisted sets the instance to a state checkPersisted accepted.
func (in *Instance) applyPersisted(p InstancePersist) {
	in.wave = p.Wave
	copy(in.impacts, p.Impacts)
	for pos, st := range in.states {
		sp := p.Steps[pos]
		st.exec = execCounters{lastWave: sp.LastExecWave, count: sp.ExecCount}
		for i, t := range st.impactTrackers {
			t.RestorePersisted(sp.Impacts[i])
		}
		for i, t := range st.errorTrackers {
			t.RestorePersisted(sp.Errors[i])
		}
	}
}

// mark pins the instance's state for rewind, copying the counters aside;
// each tracker pins its own state, copying no baseline.
func (in *Instance) mark() {
	in.markWave = in.wave
	copy(in.markImpacts, in.impacts)
	for _, st := range in.states {
		st.markExec = st.exec
		for _, t := range st.impactTrackers {
			t.Mark()
		}
		for _, t := range st.errorTrackers {
			t.Mark()
		}
	}
}

// rewind restores the state of the latest mark, which stays set.
func (in *Instance) rewind() {
	in.wave = in.markWave
	copy(in.impacts, in.markImpacts)
	for _, st := range in.states {
		st.exec = st.markExec
		for _, t := range st.impactTrackers {
			t.Rewind()
		}
		for _, t := range st.errorTrackers {
			t.Rewind()
		}
	}
}

// MeasurePersist is the measurement accumulator of one report step — the
// snapshots its error series are derived from on the live information basis —
// in the form it is persisted in. A step not yet measured has none.
type MeasurePersist struct {
	FreshPrev metric.Columns // hypothetical fresh output at the previous wave
	Accum     float64        // predicted error accumulated since the last execution
}

// HarnessCheckpoint is a complete harness state at a wave boundary.
type HarnessCheckpoint struct {
	Result          *Result // Result.Waves is the boundary's wave number
	Live            InstancePersist
	Ref             InstancePersist
	Measures        []MeasurePersist // one per report step, in their order; nil before the first measure pass
	DeciderState    []byte
	HasDeciderState bool
}

// WaveCommitter receives one checkpoint per completed wave. The durability
// layer implements it by appending a commit record to the write-ahead log;
// a returned error aborts the run (the process is considered crashed).
type WaveCommitter interface {
	CommitWave(cp *HarnessCheckpoint) error
}

// StatefulDecider is implemented by deciders whose verdicts depend on
// internal state that must survive a crash for a resumed run to reproduce
// the uncrashed decision sequence (e.g. Random's draw position). Stateless
// deciders need not implement it.
type StatefulDecider interface {
	Decider
	// DeciderState exports the decider's state.
	DeciderState() ([]byte, error)
	// RestoreDeciderState rewinds the decider to an exported state. decisions
	// is how many the run it is restored into can have asked for so far: a
	// state claiming more was not exported by that run and must be refused
	// with the decider unchanged.
	RestoreDeciderState(state []byte, decisions int) error
}

// Checkpoint captures the harness's complete state after a completed wave:
// the result so far, both instances, the measurement accumulators and — when
// the decider is stateful — the decider. The result is a view (Result.Slice),
// the instances' states are copies and a measure pass replaces the
// accumulators rather than writing into them, so the checkpoint stays valid
// however the run continues and costs a copy of the baselines, not O(waves).
func (h *Harness) Checkpoint(res *Result, d Decider) (*HarnessCheckpoint, error) {
	cp := &HarnessCheckpoint{
		Result:   res.Slice(0, res.Waves),
		Live:     h.live.PersistState(),
		Ref:      h.ref.PersistState(),
		Measures: h.measures,
	}
	if sd, ok := d.(StatefulDecider); ok {
		state, err := sd.DeciderState()
		if err != nil {
			return nil, fmt.Errorf("harness checkpoint decider: %w", err)
		}
		cp.DeciderState = state
		cp.HasDeciderState = true
	}
	return cp, nil
}

// validate reports whether the checkpoint can be restored into h: every result
// series exactly Waves long, every report step covered, the accumulators of
// all report steps or of none, each holding a state a metric can compare
// against, instance states of the workload's shape.
func (cp *HarnessCheckpoint) validate(h *Harness) error {
	res := cp.Result
	if res == nil {
		return fmt.Errorf("checkpoint holds no result")
	}
	lens := []int{len(res.LiveExecuted), len(res.LiveDegraded), len(res.RefLabels),
		len(res.RefImpacts), len(res.RefSimErrors), len(res.LiveImpacts)}
	for _, id := range h.reportSteps {
		rep := res.Reports[id]
		if rep == nil {
			return fmt.Errorf("result has no report for step %q", id)
		}
		lens = append(lens, len(rep.Measured), len(rep.Predicted), len(rep.EndToEnd), len(rep.Violations), len(rep.Degraded))
	}
	for _, n := range lens {
		if n != res.Waves {
			return fmt.Errorf("result records %d waves but holds a series of %d", res.Waves, n)
		}
	}
	if cp.Measures != nil && len(cp.Measures) != len(h.reportSteps) {
		return fmt.Errorf("checkpoint measures %d steps, harness reports %d", len(cp.Measures), len(h.reportSteps))
	}
	for i, m := range cp.Measures {
		if err := checkBaseline(m.FreshPrev); err != nil {
			return fmt.Errorf("fresh output of step %q: %w", h.reportSteps[i], err)
		}
	}
	if err := h.live.checkPersisted(cp.Live); err != nil {
		return fmt.Errorf("live: %w", err)
	}
	if err := h.ref.checkPersisted(cp.Ref); err != nil {
		return fmt.Errorf("ref: %w", err)
	}
	return nil
}

// RestoreCheckpoint rewinds the harness (built from the same workload) and
// decider to a checkpoint, returning the result to continue appending to: a
// view of the checkpoint's, so two restores of one checkpoint never alias. A
// checkpoint that fails validation is refused before the harness is touched,
// and the decider — handed the most decisions the checkpointed result can have
// asked for, one per wave and gated step — before it is.
func (h *Harness) RestoreCheckpoint(cp *HarnessCheckpoint, d Decider) (*Result, error) {
	if err := cp.validate(h); err != nil {
		return nil, fmt.Errorf("harness restore: %w", err)
	}
	if cp.HasDeciderState {
		sd, ok := d.(StatefulDecider)
		if !ok {
			return nil, fmt.Errorf("harness restore: checkpoint has decider state but policy %q is stateless", d.Name())
		}
		if err := sd.RestoreDeciderState(cp.DeciderState, cp.Result.Waves*len(h.live.gated)); err != nil {
			return nil, fmt.Errorf("harness restore decider: %w", err)
		}
	}
	h.live.applyPersisted(cp.Live)
	h.ref.applyPersisted(cp.Ref)
	h.measures = cp.Measures
	return cp.Result.Slice(0, cp.Result.Waves), nil
}

// DeciderState implements StatefulDecider: the draw position suffices, since
// the probability and seed are construction-time configuration.
func (r *Random) DeciderState() ([]byte, error) {
	buf := make([]byte, binary.MaxVarintLen64)
	n := binary.PutUvarint(buf, r.draws)
	return buf[:n], nil
}

// RestoreDeciderState implements StatefulDecider by re-seeding the source
// and replaying the persisted number of draws, leaving the decider exactly
// where the exporting one was. A decision is one draw, so a position beyond
// decisions is refused before anything is replayed.
func (r *Random) RestoreDeciderState(state []byte, decisions int) error {
	draws, n := binary.Uvarint(state)
	if n <= 0 {
		return fmt.Errorf("engine: corrupt random-decider state (%d bytes)", len(state))
	}
	if draws > uint64(decisions) {
		return fmt.Errorf("engine: random-decider state claims %d draws, the run has taken at most %d decisions", draws, decisions)
	}
	r.reseed()
	for i := uint64(0); i < draws; i++ {
		r.rng.Float64()
	}
	r.draws = draws
	return nil
}
