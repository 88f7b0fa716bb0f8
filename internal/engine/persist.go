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

// MeasurePersist is the persisted measurement accumulator of one report
// step: the previous wave's hypothetical fresh output and the accumulated
// predicted error since the step's last execution.
type MeasurePersist struct {
	FreshPrev metric.State
	Accum     float64
	Present   bool // false when the step has not been measured yet
}

// HarnessCheckpoint is a complete harness state at a wave boundary.
type HarnessCheckpoint struct {
	Waves           int // completed waves (== Result.Waves)
	Result          *Result
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

// copyResult deep-copies a Result so a checkpoint stays valid however the
// live run evolves.
func copyResult(res *Result) *Result {
	out := &Result{
		Policy:     res.Policy,
		Waves:      res.Waves,
		GatedSteps: append([]workflow.StepID(nil), res.GatedSteps...),
		Reports:    make(map[workflow.StepID]*StepReport, len(res.Reports)),
	}
	out.LiveExecuted = copyBoolMatrix(res.LiveExecuted)
	out.LiveDegraded = copyBoolMatrix(res.LiveDegraded)
	out.RefLabels = copyIntMatrix(res.RefLabels)
	out.RefImpacts = copyFloatMatrix(res.RefImpacts)
	out.RefSimErrors = copyFloatMatrix(res.RefSimErrors)
	out.LiveImpacts = copyFloatMatrix(res.LiveImpacts)
	for id, r := range res.Reports {
		out.Reports[id] = &StepReport{
			MaxError:   r.MaxError,
			Measured:   append([]float64(nil), r.Measured...),
			Predicted:  append([]float64(nil), r.Predicted...),
			EndToEnd:   append([]float64(nil), r.EndToEnd...),
			Violations: append([]bool(nil), r.Violations...),
			Degraded:   append([]bool(nil), r.Degraded...),
		}
	}
	return out
}

func copyBoolMatrix(m [][]bool) [][]bool {
	if m == nil {
		return nil
	}
	out := make([][]bool, len(m))
	for i, row := range m {
		out[i] = append([]bool(nil), row...)
	}
	return out
}

func copyIntMatrix(m [][]int) [][]int {
	if m == nil {
		return nil
	}
	out := make([][]int, len(m))
	for i, row := range m {
		out[i] = append([]int(nil), row...)
	}
	return out
}

func copyFloatMatrix(m [][]float64) [][]float64 {
	if m == nil {
		return nil
	}
	out := make([][]float64, len(m))
	for i, row := range m {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// Checkpoint captures the harness's complete state after a completed wave:
// the result so far, both instances, the measurement accumulators and — when
// the decider is stateful — the decider. Everything mutable is deep-copied
// (metric states are immutable and shared), so the checkpoint stays valid as
// the run continues.
func (h *Harness) Checkpoint(res *Result, d Decider) (*HarnessCheckpoint, error) {
	cp := &HarnessCheckpoint{
		Waves:    res.Waves,
		Result:   copyResult(res),
		Live:     h.live.PersistState(),
		Ref:      h.ref.PersistState(),
		Measures: make(map[workflow.StepID]MeasurePersist, len(h.reportSteps)),
	}
	for _, id := range h.reportSteps {
		if st, ok := h.measures[id]; ok {
			cp.Measures[id] = MeasurePersist{
				FreshPrev: st.freshPrev,
				Accum:     st.accum,
				Present:   true,
			}
		}
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
// decider to a checkpoint, returning the result to continue appending to.
// The restored result is an independent deep copy of the checkpoint's.
func (h *Harness) RestoreCheckpoint(cp *HarnessCheckpoint, d Decider) (*Result, error) {
	if err := h.live.RestorePersistedState(cp.Live); err != nil {
		return nil, fmt.Errorf("harness restore live: %w", err)
	}
	if err := h.ref.RestorePersistedState(cp.Ref); err != nil {
		return nil, fmt.Errorf("harness restore ref: %w", err)
	}
	h.measures = make(map[workflow.StepID]measureState, len(h.reportSteps))
	for _, id := range h.reportSteps {
		if mp, ok := cp.Measures[id]; ok && mp.Present {
			h.measures[id] = measureState{
				freshPrev: mp.FreshPrev,
				accum:     mp.Accum,
			}
		}
	}
	if cp.HasDeciderState {
		sd, ok := d.(StatefulDecider)
		if !ok {
			return nil, fmt.Errorf("harness restore: checkpoint has decider state but policy %q is stateless", d.Name())
		}
		if err := sd.RestoreDeciderState(cp.DeciderState); err != nil {
			return nil, fmt.Errorf("harness restore decider: %w", err)
		}
	}
	return copyResult(cp.Result), nil
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
