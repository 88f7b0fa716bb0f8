// Package multilabel turns binary classifiers into multi-label ones.
// SmartFlux's predictor is multi-label (§3.1): the input is the vector of
// per-step input impacts for a wave, and the output is the bit-vector of
// steps whose error bound the wave is predicted to exceed. This package
// provides the binary-relevance reduction (one independent binary classifier
// per label), the same strategy MEKA's BR method — used by the paper —
// employs.
package multilabel

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"smartflux/internal/ml"
)

// Errors returned by the multi-label layer.
var (
	// ErrNoLabels is returned when fitting with zero label columns.
	ErrNoLabels = errors.New("multilabel: dataset has no labels")
	// ErrShape is returned for ragged or mismatched training matrices.
	ErrShape = errors.New("multilabel: inconsistent dataset shape")
	// ErrNotFitted is returned when predicting before fitting.
	ErrNotFitted = errors.New("multilabel: classifier is not fitted")
)

// Dataset is a multi-label dataset: each example has one feature vector and
// one 0/1 value per label.
type Dataset struct {
	X [][]float64
	Y [][]int
}

// Validate checks shape invariants.
func (d Dataset) Validate() error {
	if len(d.X) == 0 {
		return fmt.Errorf("%w: empty", ErrShape)
	}
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("%w: %d feature rows vs %d label rows", ErrShape, len(d.X), len(d.Y))
	}
	if len(d.Y[0]) == 0 {
		return ErrNoLabels
	}
	width, labels := len(d.X[0]), len(d.Y[0])
	for i := range d.X {
		if len(d.X[i]) != width || len(d.Y[i]) != labels {
			return fmt.Errorf("%w: row %d", ErrShape, i)
		}
	}
	return nil
}

// Len returns the number of examples.
func (d Dataset) Len() int { return len(d.X) }

// Labels returns the number of label columns (0 when empty).
func (d Dataset) Labels() int {
	if len(d.Y) == 0 {
		return 0
	}
	return len(d.Y[0])
}

// Append adds one example, growing the dataset in place.
func (d *Dataset) Append(x []float64, y []int) {
	xc := make([]float64, len(x))
	copy(xc, x)
	yc := make([]int, len(y))
	copy(yc, y)
	d.X = append(d.X, xc)
	d.Y = append(d.Y, yc)
}

// Head returns the first n examples (or all, if fewer).
func (d Dataset) Head(n int) Dataset {
	if n > d.Len() {
		n = d.Len()
	}
	return Dataset{X: d.X[:n], Y: d.Y[:n]}
}

// Tail returns examples from index n on.
func (d Dataset) Tail(n int) Dataset {
	if n > d.Len() {
		n = d.Len()
	}
	return Dataset{X: d.X[n:], Y: d.Y[n:]}
}

// Label extracts the binary dataset for one label column.
func (d Dataset) Label(label int) (ml.Dataset, error) {
	if label < 0 || label >= d.Labels() {
		return ml.Dataset{}, fmt.Errorf("%w: label %d of %d", ErrShape, label, d.Labels())
	}
	y := make([]int, d.Len())
	for i := range d.Y {
		y[i] = d.Y[i][label]
	}
	return ml.Dataset{X: d.X, Y: y}, nil
}

// BinaryRelevance fits one independent binary classifier per label.
type BinaryRelevance struct {
	factory func() ml.Classifier
	models  []ml.Classifier
	labels  int
	// featureCols optionally restricts label l's model to the feature
	// columns featureCols[l]; a nil inner slice means all features.
	featureCols [][]int
	// parallelism bounds concurrent per-label fits (see SetParallelism).
	parallelism int
}

// NewBinaryRelevance creates a BR multi-label classifier whose per-label
// models come from factory.
func NewBinaryRelevance(factory func() ml.Classifier) *BinaryRelevance {
	return &BinaryRelevance{factory: factory}
}

// SetParallelism bounds how many per-label models Fit trains concurrently:
// n <= 0 selects runtime.GOMAXPROCS(0). Without a call, Fit stays
// sequential, since concurrent fitting calls factory from multiple
// goroutines. The labels are independent by construction — that is the
// point of binary relevance — and each model lands in its label's slot, so
// the fitted classifier is identical for every setting. Must be called
// before Fit.
func (b *BinaryRelevance) SetParallelism(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	b.parallelism = n
}

// workers resolves the effective fitting concurrency (unset = sequential).
func (b *BinaryRelevance) workers() int {
	if b.parallelism <= 0 {
		return 1
	}
	return b.parallelism
}

// SetFeatureColumns restricts each label's model to a subset of feature
// columns: label l sees cols[l] (nil = all features). Must be called before
// Fit; cols must have one entry per label.
func (b *BinaryRelevance) SetFeatureColumns(cols [][]int) {
	b.featureCols = cols
}

// project returns x restricted to label l's feature columns.
func (b *BinaryRelevance) project(l int, x []float64) ([]float64, error) {
	if b.featureCols == nil || b.featureCols[l] == nil {
		return x, nil
	}
	out := make([]float64, len(b.featureCols[l]))
	for i, col := range b.featureCols[l] {
		if col < 0 || col >= len(x) {
			return nil, fmt.Errorf("%w: feature column %d of %d", ErrShape, col, len(x))
		}
		out[i] = x[col]
	}
	return out, nil
}

// Fit trains one model per label column, concurrently when SetParallelism
// allows. On error the first failing label (lowest index) is reported, as in
// the sequential path.
func (b *BinaryRelevance) Fit(d Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	labels := d.Labels()
	if b.featureCols != nil && len(b.featureCols) != labels {
		return fmt.Errorf("%w: %d feature-column sets for %d labels", ErrShape, len(b.featureCols), labels)
	}
	models := make([]ml.Classifier, labels)
	fitOne := func(l int) error {
		binary, err := d.Label(l)
		if err != nil {
			return err
		}
		if b.featureCols != nil && b.featureCols[l] != nil {
			projected := make([][]float64, len(binary.X))
			for i, row := range binary.X {
				projected[i], err = b.project(l, row)
				if err != nil {
					return err
				}
			}
			binary.X = projected
		}
		clf := b.factory()
		if err := clf.Fit(binary); err != nil {
			return fmt.Errorf("label %d: %w", l, err)
		}
		models[l] = clf
		return nil
	}
	if workers := b.workers(); workers <= 1 || labels <= 1 {
		for l := 0; l < labels; l++ {
			if err := fitOne(l); err != nil {
				return err
			}
		}
	} else {
		errs := make([]error, labels)
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for l := 0; l < labels; l++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(l int) {
				defer wg.Done()
				errs[l] = fitOne(l)
				<-sem
			}(l)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	b.models = models
	b.labels = labels
	return nil
}

// Scores returns per-label confidences for x.
func (b *BinaryRelevance) Scores(x []float64) ([]float64, error) {
	if len(b.models) == 0 {
		return nil, ErrNotFitted
	}
	scores := make([]float64, b.labels)
	for l, model := range b.models {
		features, err := b.project(l, x)
		if err != nil {
			return nil, fmt.Errorf("label %d: %w", l, err)
		}
		s, err := model.Score(features)
		if err != nil {
			return nil, fmt.Errorf("label %d: %w", l, err)
		}
		scores[l] = s
	}
	return scores, nil
}

// Predict thresholds per-label scores into a bit vector. thresholds may have
// one entry per label, or a single entry applied to all labels.
func (b *BinaryRelevance) Predict(x []float64, thresholds []float64) ([]int, error) {
	scores, err := b.Scores(x)
	if err != nil {
		return nil, err
	}
	if len(thresholds) != 1 && len(thresholds) != len(scores) {
		return nil, fmt.Errorf("%w: %d thresholds for %d labels", ErrShape, len(thresholds), len(scores))
	}
	out := make([]int, len(scores))
	for l, s := range scores {
		th := thresholds[0]
		if len(thresholds) > 1 {
			th = thresholds[l]
		}
		if s >= th {
			out[l] = 1
		}
	}
	return out, nil
}

// Labels returns the number of fitted label columns.
func (b *BinaryRelevance) Labels() int { return b.labels }
