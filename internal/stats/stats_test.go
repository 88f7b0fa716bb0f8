package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{name: "empty", in: nil, want: 0},
		{name: "single", in: []float64{3}, want: 3},
		{name: "several", in: []float64{1, 2, 3, 4}, want: 2.5},
		{name: "negative", in: []float64{-2, 2}, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.in); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{5}); got != 0 {
		t.Errorf("Variance of singleton = %v, want 0", got)
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, 1, 1e-12) {
		t.Errorf("r = %v, want 1", r)
	}
}

func TestPearsonAntiCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{8, 6, 4, 2}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, -1, 1e-12) {
		t.Errorf("r = %v, want -1", r)
	}
}

func TestPearsonZeroVariance(t *testing.T) {
	r, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if r != 0 {
		t.Errorf("r = %v, want 0 for constant series", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("want ErrLengthMismatch, got %v", err)
	}
	if _, err := Pearson(nil, nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("want ErrEmpty, got %v", err)
	}
}

// TestPearsonAffineInvariance checks |r| is invariant under positive affine
// transformations of either series.
func TestPearsonAffineInvariance(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 3 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return true
			}
			xs = append(xs, v)
		}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = 3*x + 7
		}
		r1, err := Pearson(xs, ys)
		if err != nil {
			return false
		}
		scaled := make([]float64, len(xs))
		for i, x := range xs {
			scaled[i] = 0.5*x - 2
		}
		r2, err := Pearson(scaled, ys)
		if err != nil {
			return false
		}
		return almostEqual(r1, r2, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	mn, err := Min(xs)
	if err != nil || mn != -1 {
		t.Errorf("Min = %v, %v; want -1, nil", mn, err)
	}
	mx, err := Max(xs)
	if err != nil || mx != 5 {
		t.Errorf("Max = %v, %v; want 5, nil", mx, err)
	}
	if _, err := Min(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("Min(nil): want ErrEmpty, got %v", err)
	}
	if _, err := Max(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("Max(nil): want ErrEmpty, got %v", err)
	}
}

func TestNormalizedCumulative(t *testing.T) {
	got := NormalizedCumulative([]float64{1, 0, 1, 1})
	want := []float64{1, 0.5, 2.0 / 3, 0.75}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Fatalf("NormalizedCumulative = %v, want %v", got, want)
		}
	}
}

// TestNormalizedCumulativeBounded checks the 0/1-indicator invariant: the
// series stays within [0, 1].
func TestNormalizedCumulativeBounded(t *testing.T) {
	f := func(bits []bool) bool {
		xs := make([]float64, len(bits))
		for i, b := range bits {
			if b {
				xs[i] = 1
			}
		}
		for _, v := range NormalizedCumulative(xs) {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeometricMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{name: "empty", in: nil, want: 0},
		{name: "zero element", in: []float64{4, 0}, want: 0},
		{name: "pair", in: []float64{4, 9}, want: 6},
		{name: "identity", in: []float64{5}, want: 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := GeometricMean(tt.in); !almostEqual(got, tt.want, 1e-9) {
				t.Errorf("GeometricMean(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

// TestGeometricMeanBetweenMinMax checks GM lies within [min, max] for
// positive inputs.
func TestGeometricMeanBetweenMinMax(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			v = math.Abs(v)
			if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) || v > 1e9 {
				return true
			}
			xs = append(xs, v)
		}
		if len(xs) == 0 {
			return true
		}
		gm := GeometricMean(xs)
		mn, _ := Min(xs)
		mx, _ := Max(xs)
		return gm >= mn-1e-9 && gm <= mx+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, tt := range []struct {
		q    float64
		want float64
	}{
		{q: 0, want: 1},
		{q: 1, want: 4},
		{q: 0.5, want: 2.5},
	} {
		got, err := Quantile(xs, tt.q)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if _, err := Quantile(nil, 0.5); !errors.Is(err, ErrEmpty) {
		t.Errorf("want ErrEmpty, got %v", err)
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("want error for out-of-range quantile")
	}
	single, err := Quantile([]float64{7}, 0.3)
	if err != nil || single != 7 {
		t.Errorf("Quantile singleton = %v, %v", single, err)
	}
}
