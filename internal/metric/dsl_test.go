package metric

import (
	"math"
	"testing"
	"testing/quick"
)

// evalDSL compiles expr, applies the element pairs and computes.
func evalDSL(t *testing.T, expr string, pairs [][2]float64, ctx Context) float64 {
	t.Helper()
	factory, err := ParseDSL(expr)
	if err != nil {
		t.Fatalf("ParseDSL(%q): %v", expr, err)
	}
	m := factory()
	for _, p := range pairs {
		m.Update(p[0], p[1])
	}
	return m.Compute(ctx)
}

func TestDSLEquation3Equivalence(t *testing.T) {
	// The DSL form of Equation 3 must agree with the built-in.
	pairs := [][2]float64{{5, 3}, {1, 4}, {7, 7.5}}
	ctx := Context{Modified: 3, Total: 6, BaselineSum: 30}

	builtin := NewRelativeError()
	for _, p := range pairs {
		builtin.Update(p[0], p[1])
	}
	want := builtin.Compute(ctx)

	got := evalDSL(t, "sum(absdelta) * m / (baselinesum * n)", pairs, ctx)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("DSL Eq3 = %v, builtin = %v", got, want)
	}
}

func TestDSLEquation4Equivalence(t *testing.T) {
	pairs := [][2]float64{{4, 1}, {0, 4}}
	ctx := Context{Modified: 2, Total: 2}

	builtin := NewRMSE()
	for _, p := range pairs {
		builtin.Update(p[0], p[1])
	}
	want := builtin.Compute(ctx)

	got := evalDSL(t, "sqrt(sum(sqdelta) / m)", pairs, ctx)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("DSL RMSE = %v, builtin = %v", got, want)
	}
}

func TestDSLExpressions(t *testing.T) {
	pairs := [][2]float64{{5, 3}, {1, 4}} // deltas +2, -3
	ctx := Context{Modified: 2, Total: 4, BaselineSum: 10}
	tests := []struct {
		expr string
		want float64
	}{
		{expr: "1 + 2 * 3", want: 7},
		{expr: "(1 + 2) * 3", want: 9},
		{expr: "-2 + 3", want: 1},
		{expr: "sum(delta)", want: -1},
		{expr: "sum(absdelta)", want: 5},
		{expr: "sum(sqdelta)", want: 13},
		{expr: "sum(cur)", want: 6},
		{expr: "sum(prev)", want: 7},
		{expr: "sum(max)", want: 9},
		{expr: "max(absdelta)", want: 3},
		{expr: "max(cur)", want: 5},
		{expr: "m", want: 2},
		{expr: "n", want: 4},
		{expr: "baselinesum", want: 10},
		{expr: "abs(sum(delta))", want: 1},
		{expr: "min(m, n)", want: 2},
		{expr: "max(m, n)", want: 4},
		{expr: "sum(absdelta) / 0", want: 0}, // division by zero -> 0
		{expr: "1e2 + 0.5", want: 100.5},
	}
	for _, tt := range tests {
		t.Run(tt.expr, func(t *testing.T) {
			got := evalDSL(t, tt.expr, pairs, ctx)
			if math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("%q = %v, want %v", tt.expr, got, tt.want)
			}
		})
	}
}

func TestDSLParseErrors(t *testing.T) {
	for _, expr := range []string{
		"",
		"1 +",
		"(1 + 2",
		"sum()",
		"sum(bogus)",
		"unknownvar",
		"nosuchfn(1)",
		"sqrt(1, 2)..",
		"1 2",
		"min(1)",
	} {
		if _, err := ParseDSL(expr); err == nil {
			t.Errorf("ParseDSL(%q) must fail", expr)
		}
	}
}

func TestDSLReset(t *testing.T) {
	factory := mustParseDSL(t, "sum(absdelta)")
	m := factory()
	m.Update(5, 3)
	if got := m.Compute(Context{}); got != 2 {
		t.Fatalf("pre-reset = %v", got)
	}
	m.Reset()
	if got := m.Compute(Context{}); got != 0 {
		t.Errorf("post-reset = %v", got)
	}
}

func TestDSLThroughResolve(t *testing.T) {
	factory, err := Resolve("dsl:max(absdelta)")
	if err != nil {
		t.Fatal(err)
	}
	m := factory()
	m.Update(1, 5)
	m.Update(2, 3)
	if got := m.Compute(Context{}); got != 4 {
		t.Errorf("resolved DSL metric = %v, want 4", got)
	}
	if _, err := Resolve("dsl:((("); err == nil {
		t.Error("bad DSL through Resolve must fail")
	}
}

func TestDSLNeverReturnsNaN(t *testing.T) {
	factory := mustParseDSL(t, "sum(delta) / sum(prev) + sqrt(sum(delta))")
	f := func(pairs [][2]float64) bool {
		m := factory()
		for _, p := range pairs {
			if math.IsNaN(p[0]) || math.IsNaN(p[1]) || math.IsInf(p[0], 0) || math.IsInf(p[1], 0) {
				return true
			}
			m.Update(p[0], p[1])
		}
		v := m.Compute(Context{Modified: len(pairs), Total: len(pairs)})
		return !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDSLUsableInTracker exercises a DSL metric through the tracker path
// used by the engine.
func TestDSLUsableInTracker(t *testing.T) {
	factory := mustParseDSL(t, "sum(absdelta) / (1 + baselinesum)")
	tr := NewTracker(factory, ModeAccumulate)
	tr.Observe(StateOf(map[string]float64{"a": 10}))
	got := tr.Observe(StateOf(map[string]float64{"a": 13}))
	want := 3.0 / 11.0
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("tracker DSL value = %v, want %v", got, want)
	}
}

// mustParseDSL compiles a DSL expression the test knows to be valid.
func mustParseDSL(t *testing.T, expr string) Factory {
	t.Helper()
	f, err := ParseDSL(expr)
	if err != nil {
		t.Fatal(err)
	}
	return f
}
