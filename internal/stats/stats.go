// Package stats provides the small statistical toolkit used across the
// SmartFlux experiments: Pearson correlation (Figure 7), summary statistics,
// and cumulative/normalized series helpers (Figures 10-12).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrLengthMismatch is returned when paired series have different lengths.
var ErrLengthMismatch = errors.New("stats: series length mismatch")

// ErrEmpty is returned when an operation needs at least one sample.
var ErrEmpty = errors.New("stats: empty series")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Pearson returns the sample Pearson correlation coefficient r between xs and
// ys. r lies in [-1, 1]; it is 0 when either series has zero variance.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrLengthMismatch
	}
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Max returns the maximum of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// NormalizedCumulative returns, for each index i, sum(xs[0..i]) / (i+1).
// With xs as per-wave 0/1 indicators this is the normalized cumulative series
// the paper plots for executions (Figure 12) and confidence (Figure 10).
func NormalizedCumulative(xs []float64) []float64 {
	out := make([]float64, len(xs))
	var acc float64
	for i, x := range xs {
		acc += x
		out[i] = acc / float64(i+1)
	}
	return out
}

// GeometricMean returns the geometric mean of xs. Values must be
// non-negative; a zero anywhere yields zero. An empty slice yields zero.
func GeometricMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	// Use logs to avoid overflow on long products.
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between closest ranks. xs is not modified.
//
//sflint:ignore unused only bench/ calls it; bench/ is frozen until ROADMAP item 4, and item 13(b) deletes it after
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, errors.New("stats: quantile out of range")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}
