package engine

// Harness and instance persistence: exported, serialization-friendly
// checkpoint forms and the wave-boundary commit hook the durability layer
// plugs into. A HarnessCheckpoint captures everything a crashed process
// needs to continue the run with identical decisions: both instances'
// tracker and bookkeeping state, the measurement accumulators, the result
// series so far. It holds no policy state: a learned policy is rebuilt from
// the result, and every other decider's verdict is a function of its
// construction and its arguments.

import (
	"fmt"
	"slices"

	"smartflux/internal/metric"
)

// StepPersist is one step's persisted bookkeeping: its latest execution plus
// the full state of its impact and shadow-error trackers (the ε/ι accounting
// the QoD guarantee depends on).
type StepPersist struct {
	LastExecWave int // -1 until the step has executed
	Impacts      []metric.PersistedTracker
	Errors       []metric.PersistedTracker
}

// InstancePersist is the persisted state of one engine instance. Steps is in
// the instance's topological order: a step is identified by its position, so
// the encoded form is a function of the state alone. The instance's wave is
// not in it: a harness checkpoint's result records it.
type InstancePersist struct {
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
		Impacts: append([]float64(nil), in.impacts...),
		Steps:   make([]StepPersist, len(in.order)),
	}
	for pos, st := range in.states {
		sp := StepPersist{
			LastExecWave: st.lastExec,
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

// applyPersisted sets the instance to a state checkPersisted accepted, at
// the given wave.
func (in *Instance) applyPersisted(p InstancePersist, wave int) {
	in.wave = wave
	copy(in.impacts, p.Impacts)
	for pos, st := range in.states {
		sp := p.Steps[pos]
		st.lastExec = sp.LastExecWave
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
		st.markLastExec = st.lastExec
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
		st.lastExec = st.markLastExec
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
	Result   *Result // Result.Waves is the boundary's wave number
	Live     InstancePersist
	Ref      InstancePersist
	Measures []MeasurePersist // one per report step, in their order; nil before the first measure pass
}

// WaveCommitter receives one checkpoint per completed wave. The durability
// layer implements it by appending a commit record to the write-ahead log;
// a returned error aborts the run (the process is considered crashed).
type WaveCommitter interface {
	CommitWave(cp *HarnessCheckpoint) error
}

// Checkpoint captures the harness's complete state after a completed wave:
// the result so far, both instances and the measurement accumulators. The
// result is a view (Result.Slice), the instances' states are copies and a
// measure pass replaces the accumulators rather than writing into them, so the
// checkpoint stays valid however the run continues and costs a copy of the
// baselines, not O(waves).
func (h *Harness) Checkpoint(res *Result) *HarnessCheckpoint {
	return &HarnessCheckpoint{
		Result:   res.Slice(0, res.Waves),
		Live:     h.live.PersistState(),
		Ref:      h.ref.PersistState(),
		Measures: h.measures,
	}
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

// RestoreCheckpoint rewinds the harness (built from the same workload) to a
// checkpoint, returning the result to continue appending to: a view of the
// checkpoint's, so two restores of one checkpoint never alias. Both instances
// stand at wave cp.Result.Waves afterwards. A checkpoint holds no store, so
// the harness's stores must already be at that wave, as recovery's replay
// leaves them. A checkpoint that fails validation is refused before the
// harness is touched.
func (h *Harness) RestoreCheckpoint(cp *HarnessCheckpoint) (*Result, error) {
	if err := cp.validate(h); err != nil {
		return nil, fmt.Errorf("harness restore: %w", err)
	}
	waves := cp.Result.Waves
	h.live.applyPersisted(cp.Live, waves)
	h.ref.applyPersisted(cp.Ref, waves)
	h.measures = cp.Measures
	return cp.Result.Slice(0, waves), nil
}
