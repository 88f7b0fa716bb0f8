package metric

import (
	"fmt"
	"sort"

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

// ParseMode resolves a mode name used in workflow specs.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "cancellation", "":
		return ModeCancellation, nil
	case "accumulate":
		return ModeAccumulate, nil
	default:
		return 0, fmt.Errorf("metric: unknown mode %q", s)
	}
}

// Elem is one element of a data container: its key ("row/column") and
// numeric value.
type Elem struct {
	Key string
	Val float64
}

// State is a point-in-time snapshot of a data container: its elements in
// strictly increasing Key order. A State is immutable once built — trackers,
// snapshot caches and checkpoints share states freely instead of copying
// them — so construct one with NewState or StateOf and never write to it.
type State []Elem

// NewState takes ownership of elems and returns them as a State. Input that
// is already strictly increasing by key — the common case, which costs one
// pass and no allocation — is returned as is; anything else is stably sorted
// and, where keys repeat, only the last element of each run is kept.
func NewState(elems []Elem) State {
	sorted := true
	for i := 1; i < len(elems); i++ {
		if elems[i-1].Key >= elems[i].Key {
			sorted = false
			break
		}
	}
	if sorted {
		return elems
	}
	sort.SliceStable(elems, func(i, j int) bool { return elems[i].Key < elems[j].Key })
	out := elems[:0]
	for i, e := range elems {
		if i+1 < len(elems) && elems[i+1].Key == e.Key {
			continue
		}
		out = append(out, e)
	}
	return out
}

// StateOf builds a State from an element-key → value map.
func StateOf(m map[string]float64) State {
	elems := make([]Elem, 0, len(m))
	for k, v := range m {
		elems = append(elems, Elem{Key: k, Val: v})
	}
	sort.Slice(elems, func(i, j int) bool { return elems[i].Key < elems[j].Key })
	return elems
}

// Columns is a container state in columnar form: Keys strictly increasing,
// Vals[i] the value of element Keys[i]. It is the form ι/ε snapshots take
// (kvstore.Table.ScanColumns) and the form trackers hold their baselines in.
// Like a State it is immutable once built and shared freely. Two snapshots of
// one unchanged key set share Keys — the same backing array at the same
// length — and a tracker compares such a pair in a plain float loop.
type Columns struct {
	Keys []string
	Vals []float64
}

// ColumnsOf converts a State to Columns.
func ColumnsOf(s State) Columns {
	c := Columns{Keys: make([]string, len(s)), Vals: make([]float64, len(s))}
	for i, e := range s {
		c.Keys[i], c.Vals[i] = e.Key, e.Val
	}
	return c
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
type Tracker struct {
	factory Factory
	mode    Mode
	s       PersistedTracker
}

// PersistedTracker is a tracker's state, in the one form it is held, rolled
// back and serialized in: the engine captures it before a wave and restores
// it if the wave fails — as if the failed wave's observations never happened —
// and the durability layer checkpoints ε/ι accounting with it. The baseline is
// shared, not copied: states are immutable, so a captured value stays valid
// however the live tracker evolves. HasBaseline is a field of its own: an empty
// container is a baseline too, and gob decodes empty Columns as nil slices.
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

// evaluate runs one metric computation of state vs. baseline; it allocates
// nothing besides the Metric the factory returns. The visiting order is part
// of the result — floating-point accumulation is not associative — and is
// fixed as: BaselineSum over every baseline element in key order;
// Update(cur, prev) for new and modified elements in state key order (new
// elements compare against zero, paper §2.1); and only then Update(0, old)
// for deleted elements in baseline key order. Two states that share their
// keys are compared element by element, which is that order with nothing new
// or deleted; any other pair is merge-joined, the deletion pass taken only
// when the join met a deletion.
func (t *Tracker) evaluate(state, baseline Columns) float64 {
	m := t.factory()
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
		return m.Compute(Context{Modified: modified, Total: len(cur), BaselineSum: baselineSum})
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
	return m.Compute(Context{
		Modified:    modified + deleted,
		Total:       max(len(keys), len(oldKeys)),
		BaselineSum: baselineSum,
	})
}

// ObserveColumns folds the container state for a new wave into the tracker
// and returns the metric value accumulated since the last Commit. The first
// observation establishes the baseline and yields zero.
//
// The tracker retains state as its baseline; states are immutable, so the
// caller may keep sharing it.
func (t *Tracker) ObserveColumns(state Columns) float64 {
	if !t.s.HasBaseline {
		t.CommitColumns(state)
		return 0
	}
	t.s.Current = t.evaluate(state, t.s.Baseline)
	if t.mode == ModeAccumulate {
		t.s.Accumulated += t.s.Current
		t.s.Baseline = state
		t.s.Current = t.s.Accumulated
	}
	return t.s.Current
}

// Observe is ObserveColumns for a State.
func (t *Tracker) Observe(state State) float64 { return t.ObserveColumns(ColumnsOf(state)) }

// Current returns the most recently observed metric value.
func (t *Tracker) Current() float64 { return t.s.Current }

// CommitColumns records that the associated step executed at the current
// wave: the baseline moves to state and accumulation restarts.
func (t *Tracker) CommitColumns(state Columns) {
	t.s = PersistedTracker{Baseline: state, HasBaseline: true}
}

// Commit is CommitColumns for a State.
func (t *Tracker) Commit(state State) { t.CommitColumns(ColumnsOf(state)) }

// Persist captures the tracker's complete state; RestorePersisted must be
// called on a tracker built with the same factory and mode.
func (t *Tracker) Persist() PersistedTracker { return t.s }

// RestorePersisted rewinds the tracker to a persisted snapshot.
func (t *Tracker) RestorePersisted(s PersistedTracker) { t.s = s }

// Reset clears all tracker state, as if freshly constructed.
func (t *Tracker) Reset() { t.s = PersistedTracker{} }

// Evaluate runs a one-shot metric computation of current against baseline,
// outside any tracker. The engine uses it to measure the live-vs-synchronous
// output deviation (the paper's "measured error").
func Evaluate(factory Factory, current, baseline State) float64 {
	t := Tracker{factory: factory, mode: ModeCancellation}
	return t.evaluate(ColumnsOf(current), ColumnsOf(baseline))
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
