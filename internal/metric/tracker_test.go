package metric

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"
)

// The map-based ι/ε evaluation the merge-join replaced, kept verbatim as the
// reference the differential test compares against.

type refState = map[string]float64

func refEvaluate(factory Factory, state, baseline refState) float64 {
	m := factory()
	var baselineSum float64
	for _, key := range sortedKeys(baseline) {
		baselineSum += baseline[key]
	}
	// Elements present now: modified if absent from or different in the
	// baseline. New elements compare against zero (paper §2.1).
	for _, key := range sortedKeys(state) {
		cur := state[key]
		prev, ok := baseline[key]
		if !ok {
			prev = 0
		}
		if cur != prev || !ok {
			m.Update(cur, prev)
		}
	}
	// Deleted elements compare their old value against zero.
	for _, key := range sortedKeys(baseline) {
		if _, ok := state[key]; !ok {
			m.Update(0, baseline[key])
		}
	}
	total := len(state)
	if lb := len(baseline); lb > total {
		total = lb
	}
	return m.Compute(Context{
		Modified:    modifiedCount(state, baseline),
		Total:       total,
		BaselineSum: baselineSum,
	})
}

// columnsOf builds the Columns holding a reference state's elements.
func columnsOf(s refState) Columns {
	keys := sortedKeys(s)
	vals := make([]float64, len(keys))
	for i, key := range keys {
		vals[i] = s[key]
	}
	return Columns{Keys: keys, Vals: vals}
}

// sortedKeys returns the state's keys in lexicographic order.
func sortedKeys(s refState) []string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// modifiedCount returns m: elements differing between state and baseline.
func modifiedCount(state, baseline refState) int {
	var m int
	for key, cur := range state {
		prev, ok := baseline[key]
		if !ok || cur != prev {
			m++
		}
	}
	for key := range baseline {
		if _, ok := state[key]; !ok {
			m++
		}
	}
	return m
}

// refTracker is Tracker's Observe/Commit bookkeeping over refEvaluate.
type refTracker struct {
	factory      Factory
	mode         Mode
	execBaseline refState
	waveBaseline refState
	accumulated  float64
	hasBaseline  bool
}

func (t *refTracker) observe(state refState) float64 {
	if !t.hasBaseline {
		t.execBaseline, t.waveBaseline, t.hasBaseline = state, state, true
		return 0
	}
	if t.mode == ModeAccumulate {
		t.accumulated += refEvaluate(t.factory, state, t.waveBaseline)
		t.waveBaseline = state
		return t.accumulated
	}
	return refEvaluate(t.factory, state, t.execBaseline)
}

func (t *refTracker) commit(state refState) {
	t.execBaseline, t.waveBaseline, t.accumulated, t.hasBaseline = state, state, 0, true
}

// nextRefState derives the next wave's container state from prev: most
// elements unchanged, some modified, inserted or deleted; now and then the
// container empties or goes nil. The row keys include the ones on which
// (row, column) order and element-key order disagree.
func nextRefState(rng *rand.Rand, prev refState) refState {
	switch rng.Intn(12) {
	case 0:
		return nil
	case 1:
		return refState{}
	}
	rows := []string{"a", "a-b", "a.b", "a0", "a b", "b", "r10", "r9"}
	cols := []string{"c", "c0", "d/e", "v"}
	next := make(refState, len(prev))
	for k, v := range prev {
		switch rng.Intn(10) {
		case 0: // deleted
		case 1, 2:
			next[k] = v + rng.NormFloat64()
		default:
			next[k] = v
		}
	}
	for n := rng.Intn(6); n > 0; n-- {
		next[rows[rng.Intn(len(rows))]+"/"+cols[rng.Intn(len(cols))]] = math.Round(rng.NormFloat64()*50) / 4
	}
	return next
}

// TestMergeJoinMatchesMapReference drives a Tracker and the map-based
// reference through the same seeded Observe/Commit sequences and requires
// bit-identical values from every built-in metric, a DSL metric and both
// modes.
func TestMergeJoinMatchesMapReference(t *testing.T) {
	names := []string{
		FuncAbsoluteImpact, FuncRelativeImpact, FuncRelativeError, FuncRMSE,
		DSLPrefix + "sum(absdelta) * m / (1 + baselinesum * n) + max(absdelta) + sum(delta)",
	}
	for _, name := range names {
		factory, err := Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{ModeCancellation, ModeAccumulate} {
			for seed := int64(1); seed <= 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				tr := NewTracker(factory, mode)
				ref := &refTracker{factory: factory, mode: mode}
				var state refState
				for step := 0; step < 60; step++ {
					state = nextRefState(rng, state)
					got, want := tr.ObserveColumns(columnsOf(state)), ref.observe(state)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s %v seed %d step %d: Observe = %v (%#x), reference %v (%#x)",
							name, mode, seed, step, got, math.Float64bits(got), want, math.Float64bits(want))
					}
					if rng.Intn(5) == 0 {
						tr.CommitColumns(columnsOf(state))
						ref.commit(state)
					}
				}
			}
		}
	}
}

// TestSharedKeysMatchMergeJoin evaluates random state pairs over one key set
// two ways — sharing Keys, which takes the element-by-element loop, and with
// the state's keys cloned, which forces the merge-join — and requires the same
// bits from both for every built-in metric and a DSL metric. Values include
// NaN, ±0 and elements left unchanged.
func TestSharedKeysMatchMergeJoin(t *testing.T) {
	names := []string{
		FuncAbsoluteImpact, FuncRelativeImpact, FuncRelativeError, FuncRMSE,
		DSLPrefix + "sum(absdelta) * m / (1 + baselinesum * n) + max(absdelta) + sum(delta)",
	}
	specials := []float64{math.NaN(), 0, math.Copysign(0, -1)}
	for _, name := range names {
		factory, err := Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		tr := NewTracker(factory, ModeCancellation)
		rng := rand.New(rand.NewSource(1))
		value := func() float64 {
			if rng.Intn(4) == 0 {
				return specials[rng.Intn(len(specials))]
			}
			return math.Round(rng.NormFloat64()*50) / 4
		}
		for pair := 0; pair < 200; pair++ {
			n := rng.Intn(40)
			keys := make([]string, n)
			base := Columns{Keys: keys, Vals: make([]float64, n)}
			state := Columns{Keys: keys, Vals: make([]float64, n)}
			for i := range keys {
				keys[i] = "r" + strconv.Itoa(100+i) + "/v"
				base.Vals[i] = value()
				state.Vals[i] = value()
				if rng.Intn(3) == 0 {
					state.Vals[i] = base.Vals[i]
				}
			}
			cloned := Columns{Keys: slices.Clone(keys), Vals: state.Vals}
			if !state.sharesKeys(base) || n > 0 && cloned.sharesKeys(base) {
				t.Fatalf("pair %d: the two states do not take the two paths", pair)
			}
			fast, _ := tr.evaluate(state, base, false)
			join, _ := tr.evaluate(cloned, base, false)
			if math.Float64bits(fast) != math.Float64bits(join) {
				t.Fatalf("%s pair %d: shared keys = %v (%#x), merge-join %v (%#x)\nbase %v\nstate %v",
					name, pair, fast, math.Float64bits(fast), join, math.Float64bits(join), base.Vals, state.Vals)
			}
		}
	}
}

// TestObserveAllocations guards the hot path: one observation of a
// 1000-element container, merge-joined or of shared keys, allocates the
// Metric the factory returns and nothing else.
func TestObserveAllocations(t *testing.T) {
	cur, prev := make(refState, 1000), make(refState, 1000)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		key := "r" + string(rune('a'+i%26)) + "/" + string(rune('a'+i/26))
		prev[key] = rng.Float64() * 100
		cur[key] = prev[key] + float64(i%3)
	}
	delete(cur, "ra/a") // take the deletion pass too
	state, baseline := columnsOf(cur), columnsOf(prev)
	shared := Columns{Keys: baseline.Keys, Vals: make([]float64, baseline.Len())}
	for i, v := range baseline.Vals {
		shared.Vals[i] = v + float64(i%3)
	}
	for _, mode := range []Mode{ModeCancellation, ModeAccumulate} {
		for name, state := range map[string]Columns{"merge-join": state, "shared keys": shared} {
			tr := NewTracker(NewRelativeImpact, mode)
			tr.CommitColumns(baseline)
			if allocs := testing.AllocsPerRun(50, func() { tr.ObserveColumns(state) }); allocs > 1 {
				t.Errorf("%v, %s: ObserveColumns allocates %v objects per call, want <= 1", mode, name, allocs)
			}
		}
	}
}

// TestPersistedTrackerHoldsOneState: the monitoring component compares a
// container against one earlier state (§2.1), so that is all a persisted
// tracker carries — one Columns among its fields, and an encoding barely
// longer than that state's own, whichever events last moved the baseline.
func TestPersistedTrackerHoldsOneState(t *testing.T) {
	var states int
	var walk func(typ reflect.Type)
	walk = func(typ reflect.Type) {
		switch {
		case typ == reflect.TypeOf(Columns{}), typ == reflect.TypeOf(State(nil)):
			states++
		case typ.Kind() == reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type)
			}
		case typ.Kind() == reflect.Pointer, typ.Kind() == reflect.Slice, typ.Kind() == reflect.Array, typ.Kind() == reflect.Map:
			walk(typ.Elem())
		}
	}
	walk(reflect.TypeOf(PersistedTracker{}))
	if states != 1 {
		t.Errorf("PersistedTracker reaches %d states, want 1", states)
	}

	gobLen := func(v any) int {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	rng := rand.New(rand.NewSource(1))
	wave := func() Columns {
		c := Columns{Keys: make([]string, 1000), Vals: make([]float64, 1000)}
		for i := range c.Keys {
			c.Keys[i], c.Vals[i] = "r"+strconv.Itoa(1000+i)+"/v", rng.NormFloat64()
		}
		return c
	}
	for _, mode := range []Mode{ModeCancellation, ModeAccumulate} {
		tr := NewTracker(NewRelativeImpact, mode)
		tr.ObserveColumns(wave())
		tr.CommitColumns(wave())
		last := wave()
		tr.ObserveColumns(last)
		if got, limit := gobLen(tr.Persist()), gobLen(last)*11/10; got >= limit {
			t.Errorf("%v: persisted tracker encodes to %d bytes, want < %d (1.1x one 1000-element state)", mode, got, limit)
		}
	}
}

// TestResetRestoresFreshMetric: a tracker evaluates with one Metric, Reset
// before every evaluation but the first, so Reset must leave each built-in
// metric, and a DSL one, as its factory builds it. On 200 random state pairs
// a reused instance and a tracker give a Compute bit-identical to a fresh
// instance's.
func TestResetRestoresFreshMetric(t *testing.T) {
	names := []string{
		FuncAbsoluteImpact, FuncRelativeImpact, FuncRelativeError, FuncRMSE,
		DSLPrefix + "sum(absdelta) * m / (1 + baselinesum * n) + max(absdelta) + max(cur) + sum(delta)",
	}
	for _, name := range names {
		factory, err := Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		reused, tr := factory(), NewTracker(factory, ModeCancellation)
		var base refState
		for pair := 0; pair < 200; pair++ {
			base = nextRefState(rng, base)
			cur := nextRefState(rng, base)
			want := refEvaluate(factory, cur, base)
			reused.Reset()
			got := refEvaluate(func() Metric { return reused }, cur, base)
			tr.CommitColumns(columnsOf(base))
			viaTracker := tr.ObserveColumns(columnsOf(cur))
			if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(viaTracker) != math.Float64bits(want) {
				t.Fatalf("%s pair %d: after Reset %v, through a tracker %v, fresh %v", name, pair, got, viaTracker, want)
			}
		}
	}
}

// TestTrackerOwnsItsValues: a tracker copies the values it keeps, bit for
// bit (±0 included), so the caller may overwrite a state it handed over;
// Rewind restores the state Mark pinned however often the baseline moved
// since, and Persist returns values the tracker never writes.
func TestTrackerOwnsItsValues(t *testing.T) {
	keys := []string{"a/v", "b/v", "c/v"}
	negZero := math.Copysign(0, -1)
	state := Columns{Keys: keys, Vals: []float64{1, 0, 3}}
	tr := NewTracker(NewAbsoluteImpact, ModeCancellation)
	tr.CommitColumns(state)
	state.Vals[0], state.Vals[1] = 5, negZero // a refill of the caller's buffer
	if got := tr.Persist().Baseline.Vals; !slices.Equal(got, []float64{1, 0, 3}) {
		t.Fatalf("baseline %v changed with the caller's buffer", got)
	}
	tr.Mark()
	pinned := tr.Persist()
	if got := tr.ObserveColumns(state); got != 4*1 {
		t.Fatalf("impact %v, want 4", got)
	}
	state.Vals[2] = 7 // the observed state must not change under the caller
	tr.CommitObserved()
	held := tr.Persist()
	if math.Float64bits(held.Baseline.Vals[1]) != math.Float64bits(negZero) || held.Baseline.Vals[2] != 3 {
		t.Fatalf("committed observation %v, want [5 -0 3]", held.Baseline.Vals)
	}
	tr.ObserveColumns(state) // a second observation after the mark needs a third buffer
	tr.CommitObserved()
	for i := 0; i < 2; i++ {
		tr.Rewind()
		if got := tr.Persist(); !reflect.DeepEqual(got, pinned) {
			t.Fatalf("rewind %d: %+v, want the pinned %+v", i, got, pinned)
		}
		tr.ObserveColumns(state)
		tr.CommitObserved()
	}
	if !slices.Equal(held.Baseline.Vals, []float64{5, negZero, 3}) || !slices.Equal(pinned.Baseline.Vals, []float64{1, 0, 3}) {
		t.Fatalf("persisted states changed under the tracker: %v, %v", held.Baseline.Vals, pinned.Baseline.Vals)
	}
}
