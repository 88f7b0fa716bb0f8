package metric

import (
	"fmt"
	"math"
	"slices"

	"smartflux/internal/stats"
)

// Mode selects how a tracker's baseline evolves between step executions,
// per §2.1 of the paper.
type Mode int

const (
	// ModeCancellation compares the current container state against the
	// state captured at the step's latest execution, so opposite updates
	// cancel out: returning to the old value yields zero impact
	// regardless of intermediate waves.
	ModeCancellation Mode = iota + 1
	// ModeAccumulate compares each wave against the immediately previous
	// wave and accumulates the per-wave metric values since the last
	// execution, so churn keeps adding impact even if values return.
	ModeAccumulate
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeCancellation:
		return "cancellation"
	case ModeAccumulate:
		return "accumulate"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Columns is a point-in-time state of a data container: Keys ("row/column")
// strictly increasing, Vals[i] the value of element Keys[i]. It is the one
// form container states take: ι/ε snapshots (kvstore.Table.ScanColumns),
// tracker baselines, step outputs and the measured error's operands. Keys is
// never written once built, so states share it: two snapshots of one
// unchanged key set share Keys, and a tracker compares such a pair in a plain
// float loop. Vals belongs to whoever filled it: to keep a state filled by
// someone else — a snapshot cache refills its buffer — copy its Vals.
type Columns struct {
	Keys []string
	Vals []float64
}

// Len returns the number of elements.
func (c Columns) Len() int { return len(c.Keys) }

// sharesKeys reports whether c and o hold the very same key slice, which,
// keys being immutable, means the same elements in the same order.
func (c Columns) sharesKeys(o Columns) bool {
	return len(c.Keys) == len(o.Keys) && (len(c.Keys) == 0 || &c.Keys[0] == &o.Keys[0])
}

// Tracker computes a metric for one data container across waves, holding the
// one earlier state the metric compares against (§2.1): the state at the
// step's latest execution in cancellation mode, at the previous wave in
// accumulate mode. It is the per-(step, input) bookkeeping of the paper's
// Monitoring component; everything of it that changes is in s.
//
// A tracker copies the values it keeps into a buffer of its own that neither
// the baseline nor the state Mark pinned holds; three always suffice.
type Tracker struct {
	factory  Factory
	mode     Mode
	s        PersistedTracker
	metric   Metric  // built on first use, Reset before every later evaluation
	observed Columns // what ObserveColumns last folded in, for CommitObserved
	pin      PersistedTracker
	bufs     [3][]float64
}

// PersistedTracker is a tracker's state as the durability layer checkpoints
// it. Persist and RestorePersisted copy the values, so a persisted state
// stays valid however the tracker evolves. HasBaseline is a field of its own:
// an empty container is a baseline too, and gob decodes empty Columns as nil
// slices.
type PersistedTracker struct {
	Baseline    Columns // moved by Commit, and in accumulate mode by every Observe
	Accumulated float64
	Current     float64
	HasBaseline bool
}

// NewTracker creates a tracker using factory to build metric instances.
func NewTracker(factory Factory, mode Mode) *Tracker {
	return &Tracker{factory: factory, mode: mode}
}

// own returns a copy of vals in a tracker buffer that neither the baseline
// nor the pinned state holds.
func (t *Tracker) own(vals []float64) []float64 {
	for i, b := range t.bufs {
		if !holds(t.s.Baseline.Vals, b) && !holds(t.pin.Baseline.Vals, b) {
			t.bufs[i] = append(b[:0], vals...)
			return t.bufs[i]
		}
	}
	panic("metric: every tracker buffer is held")
}

// sameBits reports whether a and b, of one length, hold the same bits.
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// holds reports whether vals is a prefix of buffer b.
func holds(vals, b []float64) bool {
	return cap(vals) > 0 && cap(b) > 0 && &vals[:1][0] == &b[:1][0]
}

// evaluate runs one metric computation of state vs. baseline; it allocates
// nothing besides the first Metric and, with keep set, a short buffer's
// regrowth. The visiting order is part of the result — floating-point
// accumulation is not associative — and is fixed as:
// BaselineSum over every baseline element in key order; Update(cur, prev)
// for new and modified elements in state key order (new elements compare
// against zero, paper §2.1); and only then Update(0, old) for deleted
// elements in baseline key order. Two states that share their keys are
// compared element by element, which is that order with nothing new or
// deleted; any other pair is merge-joined, the deletion pass taken only when
// the join met a deletion. With keep set it also returns a copy of state's
// values of the tracker's own, or baseline.Vals if they are its bit for bit.
func (t *Tracker) evaluate(state, baseline Columns, keep bool) (float64, []float64) {
	m := t.metric
	if m == nil {
		m = t.factory()
		t.metric = m
	} else {
		m.Reset()
	}
	var baselineSum float64
	var modified, deleted int
	if state.sharesKeys(baseline) {
		cur := state.Vals[:len(baseline.Vals)]
		for i, prev := range baseline.Vals {
			baselineSum += prev
			if cur[i] != prev {
				m.Update(cur[i], prev)
				modified++
			}
		}
		kept := baseline.Vals
		if keep && (modified > 0 || !sameBits(cur, kept)) {
			kept = t.own(cur)
		}
		return m.Compute(Context{Modified: modified, Total: len(cur), BaselineSum: baselineSum}), kept
	}
	keys, vals := state.Keys, state.Vals
	oldKeys, oldVals := baseline.Keys, baseline.Vals
	i, j := 0, 0
	for i < len(keys) && j < len(oldKeys) {
		switch {
		case keys[i] == oldKeys[j]:
			baselineSum += oldVals[j]
			if vals[i] != oldVals[j] {
				m.Update(vals[i], oldVals[j])
				modified++
			}
			i++
			j++
		case keys[i] < oldKeys[j]:
			m.Update(vals[i], 0)
			modified++
			i++
		default:
			baselineSum += oldVals[j]
			deleted++
			j++
		}
	}
	for ; i < len(keys); i++ {
		m.Update(vals[i], 0)
		modified++
	}
	for ; j < len(oldKeys); j++ {
		baselineSum += oldVals[j]
		deleted++
	}
	if deleted > 0 {
		i = 0
		for j, old := range oldKeys {
			for i < len(keys) && keys[i] < old {
				i++
			}
			if i == len(keys) || keys[i] != old {
				m.Update(0, oldVals[j])
			}
		}
	}
	var kept []float64
	if keep {
		kept = t.own(vals)
	}
	return m.Compute(Context{
		Modified:    modified + deleted,
		Total:       max(len(keys), len(oldKeys)),
		BaselineSum: baselineSum,
	}), kept
}

// ObserveColumns folds the container state for a new wave into the tracker
// and returns the metric value accumulated since the last Commit. The first
// observation establishes the baseline and yields zero. The tracker copies
// what it keeps of state.Vals.
func (t *Tracker) ObserveColumns(state Columns) float64 {
	if !t.s.HasBaseline {
		t.CommitColumns(state)
		return 0
	}
	current, vals := t.evaluate(state, t.s.Baseline, true)
	t.observed = Columns{Keys: state.Keys, Vals: vals}
	t.s.Current = current
	if t.mode == ModeAccumulate {
		t.s.Accumulated += current
		t.s.Baseline = t.observed
		t.s.Current = t.s.Accumulated
	}
	return t.s.Current
}

// CommitColumns records that the associated step executed at the current
// wave: the baseline moves to a copy of state, and accumulation restarts.
func (t *Tracker) CommitColumns(state Columns) {
	t.s = PersistedTracker{Baseline: Columns{Keys: state.Keys, Vals: t.own(state.Vals)}, HasBaseline: true}
	t.observed = t.s.Baseline
}

// CommitObserved is CommitColumns of the state the latest ObserveColumns
// folded in, as it was then, at no copy.
func (t *Tracker) CommitObserved() {
	t.s = PersistedTracker{Baseline: t.observed, HasBaseline: true}
}

// Mark pins the tracker's state: no write goes to the pinned values until
// the next Mark or RestorePersisted.
func (t *Tracker) Mark() { t.pin = t.s }

// Rewind restores the pinned state (the fresh state if none), which stays.
func (t *Tracker) Rewind() { t.s, t.observed = t.pin, t.pin.Baseline }

// Persist returns a copy of the tracker's complete state; RestorePersisted
// must be called on a tracker built with the same factory and mode.
func (t *Tracker) Persist() PersistedTracker {
	p := t.s
	p.Baseline.Vals = slices.Clone(p.Baseline.Vals)
	return p
}

// RestorePersisted sets the tracker to a copy of a persisted state and
// drops any pin.
func (t *Tracker) RestorePersisted(s PersistedTracker) {
	t.s, t.pin = PersistedTracker{}, PersistedTracker{}
	s.Baseline.Vals = t.own(s.Baseline.Vals)
	t.s, t.observed = s, s.Baseline
}

// Evaluate runs a one-shot metric computation of current against baseline,
// outside any tracker. The engine uses it to measure the live-vs-synchronous
// output deviation (the paper's "measured error").
func Evaluate(factory Factory, current, baseline Columns) float64 {
	t := Tracker{factory: factory}
	v, _ := t.evaluate(current, baseline, false)
	return v
}

// Combiner merges the per-predecessor impacts of a step with several inputs
// into one value (§2.1: geometric mean by default).
type Combiner func(values []float64) float64

// CombineGeometricMean is the paper's default combiner.
func CombineGeometricMean(values []float64) float64 {
	return stats.GeometricMean(values)
}

// CombineMean averages the impacts.
func CombineMean(values []float64) float64 {
	return stats.Mean(values)
}

// CombineMax takes the largest impact, a conservative choice that triggers
// as soon as any input changes significantly.
func CombineMax(values []float64) float64 {
	m, err := stats.Max(values)
	if err != nil {
		return 0
	}
	return m
}

// ResolveCombiner maps a spec name to a Combiner.
func ResolveCombiner(name string) (Combiner, error) {
	switch name {
	case "", "geometric-mean":
		return CombineGeometricMean, nil
	case "mean":
		return CombineMean, nil
	case "max":
		return CombineMax, nil
	default:
		return nil, fmt.Errorf("metric: unknown combiner %q", name)
	}
}
