// Package ml is a from-scratch machine-learning library implementing the
// classifier line-up evaluated in §3.2 of the SmartFlux paper (Random Forest,
// SVM, logistic regression, naive Bayes, decision tree, neural network, plus
// k-NN), together with the dataset plumbing they share. The sub-package
// ml/eval provides model evaluation.
//
// All classifiers are binary: labels are 0 or 1 and scores are confidences
// for class 1. The multi-label h: ι-vector → execute-bit-vector classifier of
// §3.1 is one binary classifier per gated step, the binary-relevance
// reduction MEKA applies; package core builds it.
package ml

import (
	"errors"
	"fmt"
	"math"
)

// Errors shared by classifiers.
var (
	// ErrEmptyDataset is returned when fitting on no examples.
	ErrEmptyDataset = errors.New("ml: empty dataset")
	// ErrDimensionMismatch is returned when feature vectors disagree in length.
	ErrDimensionMismatch = errors.New("ml: feature dimension mismatch")
	// ErrBadLabel is returned for labels outside {0, 1}.
	ErrBadLabel = errors.New("ml: labels must be 0 or 1")
	// ErrNotFitted is returned when predicting before fitting.
	ErrNotFitted = errors.New("ml: classifier is not fitted")
	// ErrNaNFeature is returned for a NaN feature value, which no split or
	// distance can order.
	ErrNaNFeature = errors.New("ml: feature value is NaN")
)

// Dataset is a supervised binary-classification dataset.
type Dataset struct {
	// X holds one feature vector per example.
	X [][]float64
	// Y holds the 0/1 label per example.
	Y []int
}

// NewDataset validates and wraps feature vectors and labels.
func NewDataset(x [][]float64, y []int) (Dataset, error) {
	ds := Dataset{X: x, Y: y}
	if err := ds.Validate(); err != nil {
		return Dataset{}, err
	}
	return ds, nil
}

// Validate checks shape, feature and label invariants.
func (d Dataset) Validate() error {
	if len(d.X) == 0 {
		return ErrEmptyDataset
	}
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("%w: %d feature rows vs %d labels", ErrDimensionMismatch, len(d.X), len(d.Y))
	}
	width := len(d.X[0])
	for i, row := range d.X {
		if len(row) != width {
			return fmt.Errorf("%w: row %d has %d features, want %d", ErrDimensionMismatch, i, len(row), width)
		}
		for j, v := range row {
			if math.IsNaN(v) {
				return fmt.Errorf("%w: row %d, column %d", ErrNaNFeature, i, j)
			}
		}
	}
	for i, label := range d.Y {
		if label != 0 && label != 1 {
			return fmt.Errorf("%w: example %d has label %d", ErrBadLabel, i, label)
		}
	}
	return nil
}

// Len returns the number of examples.
func (d Dataset) Len() int { return len(d.X) }

// Features returns the feature-vector width (0 for an empty dataset).
func (d Dataset) Features() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Positives counts the examples labeled 1.
func (d Dataset) Positives() int {
	var n int
	for _, y := range d.Y {
		if y == 1 {
			n++
		}
	}
	return n
}

// Subset returns the dataset restricted to the given example indices. Rows
// are shared, not copied.
func (d Dataset) Subset(idx []int) Dataset {
	x := make([][]float64, len(idx))
	y := make([]int, len(idx))
	for i, j := range idx {
		x[i] = d.X[j]
		y[i] = d.Y[j]
	}
	return Dataset{X: x, Y: y}
}

// Classifier is a binary classifier. Fit trains on a dataset; Score returns
// a confidence in [0, 1] (or a monotone surrogate of it) that x belongs to
// class 1.
type Classifier interface {
	Fit(d Dataset) error
	Score(x []float64) (float64, error)
}

// Named is implemented by classifiers that expose a human-readable name,
// used in the §3.2 comparison tables.
type Named interface {
	Name() string
}

// sigmoid is the logistic function, shared by several models.
func sigmoid(z float64) float64 {
	if z >= 0 {
		ez := math.Exp(-z)
		return 1 / (1 + ez)
	}
	ez := math.Exp(z)
	return ez / (1 + ez)
}
