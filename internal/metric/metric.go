// Package metric implements SmartFlux's Quality-of-Data metrics: the input
// impact ι (paper §2.1, Equations 1-2) and output error ε (paper §2.2,
// Equations 3-4), together with the user-extensible update/compute API of
// §4.2 and the baseline trackers that realize the accumulation and
// cancellation semantics of the workflow model.
package metric

import (
	"errors"
	"math"
)

// Context carries the container-level aggregates a Metric may need when
// computing its final value.
type Context struct {
	// Modified is m: the number of elements changed relative to the
	// baseline (the number of Update calls since the last Reset).
	Modified int
	// Total is n: the number of elements in the data container.
	Total int
	// BaselineSum is Σ x'ᵢ over all n elements of the baseline (latest
	// saved) state. Equation 3 normalizes by this.
	BaselineSum float64
}

// Metric is the §4.2 user-extensible metric API. Update is called once per
// modified element with its current and latest-saved values; Compute returns
// the overall metric for the container once no more elements are expected.
//
// Implementations are not safe for concurrent use. A tracker builds one
// instance with its factory and reuses it for every evaluation, calling
// Reset before each one after the first.
type Metric interface {
	// Update folds one modified element into the metric state. prev is
	// zero for newly inserted elements (which increases the impact, per
	// the paper); cur is zero for deletions.
	Update(cur, prev float64)
	// Compute returns the overall metric value for the container.
	Compute(ctx Context) float64
	// Reset restores the state the factory built the instance in: an
	// evaluation after Reset must compute exactly what one on a fresh
	// instance would.
	Reset()
}

// Factory creates fresh Metric instances. A tracker calls it once and
// Resets that instance between evaluations; a one-shot Evaluate calls it
// each time.
type Factory func() Metric

// ErrUnknownFunc is returned when resolving an unrecognized built-in name.
var ErrUnknownFunc = errors.New("metric: unknown built-in function")

// Built-in metric names, usable as a workflow QoD's ImpactFunc and ErrorFunc.
const (
	// FuncAbsoluteImpact is Equation 1: ι = Σ|xᵢ-x'ᵢ| × m.
	FuncAbsoluteImpact = "absolute-impact"
	// FuncRelativeImpact is Equation 2:
	// ι = (Σ|xᵢ-x'ᵢ| × m) / (Σ max(xᵢ,x'ᵢ) × n), in [0,1].
	FuncRelativeImpact = "relative-impact"
	// FuncRelativeError is Equation 3:
	// ε = (Σ|xᵢ-x'ᵢ| × m) / (Σ x'ᵢ × n), in [0,1].
	FuncRelativeError = "relative-error"
	// FuncRMSE is Equation 4: ε = sqrt(Σ(xᵢ-x'ᵢ)² / m).
	FuncRMSE = "rmse"
)

// Resolve returns the factory for a built-in metric name.
func Resolve(name string) (Factory, error) {
	switch name {
	case FuncAbsoluteImpact:
		return NewAbsoluteImpact, nil
	case FuncRelativeImpact:
		return NewRelativeImpact, nil
	case FuncRelativeError:
		return NewRelativeError, nil
	case FuncRMSE:
		return NewRMSE, nil
	default:
		return nil, errors.Join(ErrUnknownFunc, errors.New(name))
	}
}

// absoluteImpact implements Equation 1.
type absoluteImpact struct {
	absSum float64
	m      int
}

// NewAbsoluteImpact returns Equation 1: Σ|xᵢ-x'ᵢ| × m. It captures the
// magnitude of change scaled by how many elements changed.
func NewAbsoluteImpact() Metric { return &absoluteImpact{} }

func (a *absoluteImpact) Update(cur, prev float64) {
	a.absSum += math.Abs(cur - prev)
	a.m++
}

func (a *absoluteImpact) Compute(Context) float64 {
	return a.absSum * float64(a.m)
}

func (a *absoluteImpact) Reset() { *a = absoluteImpact{} }

// relativeImpact implements Equation 2.
type relativeImpact struct {
	absSum float64
	maxSum float64
	m      int
}

// NewRelativeImpact returns Equation 2: the Equation-1 impact normalized by
// Σ max(xᵢ,x'ᵢ) × n, yielding a value in [0,1] — 0 for no changes, 1 when
// new data has magnitude at least that of the previous state.
func NewRelativeImpact() Metric { return &relativeImpact{} }

func (r *relativeImpact) Update(cur, prev float64) {
	r.absSum += math.Abs(cur - prev)
	r.maxSum += math.Max(cur, prev)
	r.m++
}

func (r *relativeImpact) Compute(ctx Context) float64 {
	num := r.absSum * float64(r.m)
	den := r.maxSum * float64(ctx.Total)
	return boundedRatio(num, den)
}

func (r *relativeImpact) Reset() { *r = relativeImpact{} }

// relativeError implements Equation 3.
type relativeError struct {
	absSum float64
	m      int
}

// NewRelativeError returns Equation 3: (Σ|xᵢ-x'ᵢ| × m) / (Σ x'ᵢ × n) where
// the denominator sums the baseline state over all n elements. It captures
// the relative impact of new updates on the latest state, in [0,1].
func NewRelativeError() Metric { return &relativeError{} }

func (r *relativeError) Update(cur, prev float64) {
	r.absSum += math.Abs(cur - prev)
	r.m++
}

func (r *relativeError) Compute(ctx Context) float64 {
	num := r.absSum * float64(r.m)
	den := ctx.BaselineSum * float64(ctx.Total)
	return boundedRatio(num, den)
}

func (r *relativeError) Reset() { *r = relativeError{} }

// rmse implements Equation 4.
type rmse struct {
	sqSum float64
	m     int
}

// NewRMSE returns Equation 4, the root-mean-square error over modified
// elements: it attenuates small differences and penalizes large ones.
func NewRMSE() Metric { return &rmse{} }

func (r *rmse) Update(cur, prev float64) {
	d := cur - prev
	r.sqSum += d * d
	r.m++
}

func (r *rmse) Compute(Context) float64 {
	if r.m == 0 {
		return 0
	}
	return math.Sqrt(r.sqSum / float64(r.m))
}

func (r *rmse) Reset() { *r = rmse{} }

// boundedRatio returns num/den clamped to [0,1], treating a zero denominator
// as full impact (1) when the numerator is positive and no impact (0)
// otherwise. This keeps the normalized metrics total even when a container
// starts from an all-zero state.
func boundedRatio(num, den float64) float64 {
	if num <= 0 {
		return 0
	}
	if den <= 0 {
		return 1
	}
	ratio := num / den
	if ratio > 1 {
		return 1
	}
	return ratio
}

var (
	_ Metric = (*absoluteImpact)(nil)
	_ Metric = (*relativeImpact)(nil)
	_ Metric = (*relativeError)(nil)
	_ Metric = (*rmse)(nil)
)
