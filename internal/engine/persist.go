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
	"maps"

	"smartflux/internal/metric"
	"smartflux/internal/workflow"
)

// StepPersist is one step's persisted bookkeeping: execution counters plus
// the full state of its impact and shadow-error trackers (the ε/ι accounting
// the QoD guarantee depends on).
type StepPersist struct {
	ExecutedEver bool
	LastExecWave int
	ExecCount    int
	Impacts      []metric.PersistedTracker
	Errors       []metric.PersistedTracker
}

// InstancePersist is the persisted state of one engine instance.
type InstancePersist struct {
	Wave    int
	Impacts []float64
	Steps   map[workflow.StepID]StepPersist
}

// PersistState exports the instance's complete mutable state in
// serialization-friendly form (tracker baselines are shared, not copied:
// metric states are immutable). The workflow wiring, store and configuration
// are construction-time inputs and not included: RestorePersistedState must
// be called on an instance built from the same workload.
func (in *Instance) PersistState() InstancePersist {
	p := InstancePersist{
		Wave:    in.wave,
		Impacts: append([]float64(nil), in.impacts...),
		Steps:   make(map[workflow.StepID]StepPersist, len(in.states)),
	}
	for id, st := range in.states {
		sp := StepPersist{
			ExecutedEver: st.executedEver,
			LastExecWave: st.lastExecWave,
			ExecCount:    st.execCount,
			Impacts:      make([]metric.PersistedTracker, len(st.impactTrackers)),
			Errors:       make([]metric.PersistedTracker, len(st.errorTrackers)),
		}
		for i, t := range st.impactTrackers {
			sp.Impacts[i] = t.Persist()
		}
		for i, t := range st.errorTrackers {
			sp.Errors[i] = t.Persist()
		}
		p.Steps[id] = sp
	}
	return p
}

// RestorePersistedState rewinds the instance to a persisted state. It fails
// if the persisted shape does not match the instance's workflow (a resumed
// run must be built from the same workload definition).
func (in *Instance) RestorePersistedState(p InstancePersist) error {
	if len(p.Impacts) != len(in.impacts) {
		return fmt.Errorf("engine: persisted state has %d gated impacts, instance has %d", len(p.Impacts), len(in.impacts))
	}
	for id, st := range in.states {
		sp, ok := p.Steps[id]
		if !ok {
			return fmt.Errorf("engine: persisted state is missing step %q", id)
		}
		if len(sp.Impacts) != len(st.impactTrackers) || len(sp.Errors) != len(st.errorTrackers) {
			return fmt.Errorf("engine: persisted tracker shape mismatch for step %q", id)
		}
	}
	in.wave = p.Wave
	copy(in.impacts, p.Impacts)
	for id, st := range in.states {
		sp := p.Steps[id]
		st.executedEver = sp.ExecutedEver
		st.lastExecWave = sp.LastExecWave
		st.execCount = sp.ExecCount
		for i, t := range st.impactTrackers {
			t.RestorePersisted(sp.Impacts[i])
		}
		for i, t := range st.errorTrackers {
			t.RestorePersisted(sp.Errors[i])
		}
	}
	return nil
}

// MeasurePersist is the measurement accumulator of one report step — the
// snapshots its error series are derived from on the live information basis —
// in the form it is persisted in. A step not yet measured has none.
type MeasurePersist struct {
	FreshPrev metric.State // hypothetical fresh output at the previous wave
	Accum     float64      // predicted error accumulated since the last execution
}

// HarnessCheckpoint is a complete harness state at a wave boundary.
type HarnessCheckpoint struct {
	Result          *Result // Result.Waves is the boundary's wave number
	Live            InstancePersist
	Ref             InstancePersist
	Measures        map[workflow.StepID]MeasurePersist
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
	// RestoreDeciderState rewinds the decider to an exported state.
	RestoreDeciderState([]byte) error
}

// Checkpoint captures the harness's complete state after a completed wave:
// the result so far, both instances, the measurement accumulators and — when
// the decider is stateful — the decider. The result is a view (Result.Slice)
// and metric states are immutable and shared, so the checkpoint stays valid
// however the run continues and costs O(report steps), not O(waves).
func (h *Harness) Checkpoint(res *Result, d Decider) (*HarnessCheckpoint, error) {
	cp := &HarnessCheckpoint{
		Result:   res.Slice(0, res.Waves),
		Live:     h.live.PersistState(),
		Ref:      h.ref.PersistState(),
		Measures: maps.Clone(h.measures),
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

// RestoreCheckpoint rewinds the harness (built from the same workload) and
// decider to a checkpoint, returning the result to continue appending to: a
// view of the checkpoint's, so two restores of one checkpoint never alias.
func (h *Harness) RestoreCheckpoint(cp *HarnessCheckpoint, d Decider) (*Result, error) {
	if err := h.live.RestorePersistedState(cp.Live); err != nil {
		return nil, fmt.Errorf("harness restore live: %w", err)
	}
	if err := h.ref.RestorePersistedState(cp.Ref); err != nil {
		return nil, fmt.Errorf("harness restore ref: %w", err)
	}
	h.measures = make(map[workflow.StepID]MeasurePersist, len(h.reportSteps))
	maps.Copy(h.measures, cp.Measures)
	if cp.HasDeciderState {
		sd, ok := d.(StatefulDecider)
		if !ok {
			return nil, fmt.Errorf("harness restore: checkpoint has decider state but policy %q is stateless", d.Name())
		}
		if err := sd.RestoreDeciderState(cp.DeciderState); err != nil {
			return nil, fmt.Errorf("harness restore decider: %w", err)
		}
	}
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
// where the exporting one was.
func (r *Random) RestoreDeciderState(state []byte) error {
	draws, n := binary.Uvarint(state)
	if n <= 0 {
		return fmt.Errorf("engine: corrupt random-decider state (%d bytes)", len(state))
	}
	r.reseed()
	for i := uint64(0); i < draws; i++ {
		r.rng.Float64()
	}
	r.draws = draws
	return nil
}
