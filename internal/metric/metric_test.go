package metric

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// applyUpdates runs a metric over element pairs and computes it.
func applyUpdates(m Metric, pairs [][2]float64, ctx Context) float64 {
	for _, p := range pairs {
		m.Update(p[0], p[1])
	}
	return m.Compute(ctx)
}

func TestAbsoluteImpactEquation1(t *testing.T) {
	// ι = Σ|xᵢ-x'ᵢ| × m: two elements changed by 2 and 3 → (2+3)*2 = 10.
	m := NewAbsoluteImpact()
	got := applyUpdates(m, [][2]float64{{5, 3}, {1, 4}}, Context{Modified: 2, Total: 4})
	if !almostEqual(got, 10) {
		t.Errorf("Eq1 = %v, want 10", got)
	}
	m.Reset()
	if got := m.Compute(Context{}); got != 0 {
		t.Errorf("after reset: %v", got)
	}
}

func TestRelativeImpactEquation2(t *testing.T) {
	// ι = (Σ|Δ| × m) / (Σ max × n): elements (5,3) and (1,4):
	// num = (2+3)*2 = 10; den = (5+4)*4 = 36 → 10/36.
	m := NewRelativeImpact()
	got := applyUpdates(m, [][2]float64{{5, 3}, {1, 4}}, Context{Modified: 2, Total: 4})
	if !almostEqual(got, 10.0/36) {
		t.Errorf("Eq2 = %v, want %v", got, 10.0/36)
	}
}

func TestRelativeErrorEquation3(t *testing.T) {
	// ε = (Σ|Δ| × m) / (BaselineSum × n): num = (2+3)*2 = 10;
	// den = 20*4 = 80 → 0.125.
	m := NewRelativeError()
	got := applyUpdates(m, [][2]float64{{5, 3}, {1, 4}},
		Context{Modified: 2, Total: 4, BaselineSum: 20})
	if !almostEqual(got, 0.125) {
		t.Errorf("Eq3 = %v, want 0.125", got)
	}
}

func TestRMSEEquation4(t *testing.T) {
	// ε = sqrt(Σ(Δ)²/m): deltas 3 and 4 → sqrt(25/2).
	m := NewRMSE()
	got := applyUpdates(m, [][2]float64{{4, 1}, {0, 4}}, Context{})
	if !almostEqual(got, math.Sqrt(12.5)) {
		t.Errorf("Eq4 = %v, want %v", got, math.Sqrt(12.5))
	}
	empty := NewRMSE()
	if got := empty.Compute(Context{}); got != 0 {
		t.Errorf("empty RMSE = %v", got)
	}
}

// TestNormalizedMetricsBounded: equations 2 and 3 stay in [0, 1] under
// arbitrary updates.
func TestNormalizedMetricsBounded(t *testing.T) {
	f := func(raw [][2]float64, baselineSum float64) bool {
		ctx := Context{Modified: len(raw), Total: len(raw) + 1, BaselineSum: math.Abs(baselineSum)}
		for _, factory := range []Factory{NewRelativeImpact, NewRelativeError} {
			m := factory()
			for _, p := range raw {
				if math.IsNaN(p[0]) || math.IsNaN(p[1]) || math.IsInf(p[0], 0) || math.IsInf(p[1], 0) {
					return true
				}
				m.Update(math.Abs(p[0]), math.Abs(p[1]))
			}
			v := m.Compute(ctx)
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBoundedRatioEdges(t *testing.T) {
	if got := boundedRatio(0, 0); got != 0 {
		t.Errorf("0/0 = %v, want 0", got)
	}
	if got := boundedRatio(5, 0); got != 1 {
		t.Errorf("5/0 = %v, want 1 (full impact)", got)
	}
	if got := boundedRatio(10, 5); got != 1 {
		t.Errorf("clamp: %v, want 1", got)
	}
	if got := boundedRatio(1, 4); got != 0.25 {
		t.Errorf("1/4 = %v", got)
	}
}

func TestResolve(t *testing.T) {
	for _, name := range []string{FuncAbsoluteImpact, FuncRelativeImpact, FuncRelativeError, FuncRMSE} {
		factory, err := Resolve(name)
		if err != nil || factory == nil {
			t.Errorf("Resolve(%q): %v", name, err)
		}
	}
	if _, err := Resolve("nope"); !errors.Is(err, ErrUnknownFunc) {
		t.Errorf("want ErrUnknownFunc, got %v", err)
	}
}

func TestModeString(t *testing.T) {
	if ModeAccumulate.String() != "accumulate" || ModeCancellation.String() != "cancellation" {
		t.Error("unexpected mode strings")
	}
	if Mode(42).String() == "" {
		t.Error("unknown mode must render")
	}
}

func TestTrackerCancellationModeCancelsRoundTrips(t *testing.T) {
	tr := NewTracker(NewAbsoluteImpact, ModeCancellation)
	base := columnsOf(refState{"a": 1, "b": 2})
	if got := tr.ObserveColumns(base); got != 0 {
		t.Fatalf("first observe = %v, want 0", got)
	}
	changed := tr.ObserveColumns(columnsOf(refState{"a": 5, "b": 2}))
	if changed == 0 {
		t.Fatal("change must register impact")
	}
	// Values return to the baseline: impact cancels to zero.
	if got := tr.ObserveColumns(base); got != 0 {
		t.Errorf("round trip impact = %v, want 0", got)
	}
}

func TestTrackerAccumulateModeKeepsChurn(t *testing.T) {
	tr := NewTracker(NewAbsoluteImpact, ModeAccumulate)
	base := columnsOf(refState{"a": 1})
	tr.ObserveColumns(base)
	tr.ObserveColumns(columnsOf(refState{"a": 5})) // +4
	got := tr.ObserveColumns(base)
	// Churn accumulates: |5-1|*1 + |1-5|*1 = 8 even though the value is back.
	if !almostEqual(got, 8) {
		t.Errorf("accumulated churn = %v, want 8", got)
	}
	if tr.s.Current != got {
		t.Error("the tracker's current value must match the latest Observe")
	}
}

// TestTrackerAccumulateMonotonicNonDecreasing: with a non-negative metric,
// accumulate-mode values never decrease between commits.
func TestTrackerAccumulateMonotonicNonDecreasing(t *testing.T) {
	f := func(vals []float64) bool {
		tr := NewTracker(NewAbsoluteImpact, ModeAccumulate)
		prev := tr.ObserveColumns(columnsOf(refState{"x": 0}))
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			cur := tr.ObserveColumns(columnsOf(refState{"x": v}))
			if cur < prev-1e-9 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTrackerCommitResets(t *testing.T) {
	tr := NewTracker(NewAbsoluteImpact, ModeAccumulate)
	tr.ObserveColumns(columnsOf(refState{"a": 1}))
	tr.ObserveColumns(columnsOf(refState{"a": 9}))
	tr.CommitColumns(columnsOf(refState{"a": 9}))
	if tr.s.Current != 0 {
		t.Error("commit must reset the running value")
	}
	if got := tr.ObserveColumns(columnsOf(refState{"a": 9})); got != 0 {
		t.Errorf("unchanged state after commit = %v, want 0", got)
	}
	if got := tr.ObserveColumns(columnsOf(refState{"a": 10})); !almostEqual(got, 1) {
		t.Errorf("delta after commit = %v, want 1", got)
	}
}

func TestTrackerInsertionsAndDeletions(t *testing.T) {
	tr := NewTracker(NewAbsoluteImpact, ModeCancellation)
	tr.ObserveColumns(columnsOf(refState{"a": 3}))
	// Insertion: new element compares against zero → |5-0| × m(1) = 5.
	if got := tr.ObserveColumns(columnsOf(refState{"a": 3, "b": 5})); !almostEqual(got, 5) {
		t.Errorf("insertion impact = %v, want 5", got)
	}
	// Versus the exec baseline {a:3}: a deleted (|0-3| = 3) and b
	// inserted (|3-0| = 3), m = 2 → (3+3)*2 = 12.
	if got := tr.ObserveColumns(columnsOf(refState{"b": 3})); !almostEqual(got, 12) {
		t.Errorf("delete+insert impact = %v, want 12", got)
	}
}

func TestEvaluateOneShot(t *testing.T) {
	got := Evaluate(NewRMSE, columnsOf(refState{"a": 4}), columnsOf(refState{"a": 1}))
	if !almostEqual(got, 3) {
		t.Errorf("Evaluate = %v, want 3", got)
	}
	if got := Evaluate(NewRMSE, columnsOf(refState{"a": 1}), columnsOf(refState{"a": 1})); got != 0 {
		t.Errorf("identical states = %v, want 0", got)
	}
}

func TestCombiners(t *testing.T) {
	vals := []float64{4, 9}
	if got := CombineGeometricMean(vals); !almostEqual(got, 6) {
		t.Errorf("geometric mean = %v", got)
	}
	if got := CombineMean(vals); !almostEqual(got, 6.5) {
		t.Errorf("mean = %v", got)
	}
	if got := CombineMax(vals); got != 9 {
		t.Errorf("max = %v", got)
	}
	if got := CombineMax(nil); got != 0 {
		t.Errorf("max of empty = %v", got)
	}
}

func TestResolveCombiner(t *testing.T) {
	for _, name := range []string{"", "geometric-mean", "mean", "max"} {
		if _, err := ResolveCombiner(name); err != nil {
			t.Errorf("ResolveCombiner(%q): %v", name, err)
		}
	}
	if _, err := ResolveCombiner("nope"); err == nil {
		t.Error("want error for unknown combiner")
	}
}
