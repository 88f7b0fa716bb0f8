// Package core implements the SmartFlux middleware proper (paper §3-4): the
// Knowledge Base that logs training tuples collected by the Monitoring
// component, the Predictor (a multi-label Random Forest by default) that
// learns the correlation between input impact and output error, and the QoD
// Engine that decides — wave by wave — which steps to trigger. The package
// glues into the execution engine through the engine.Decider interface.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"smartflux/internal/ml"
	"smartflux/internal/ml/eval"
)

// Errors returned by the core layer.
var (
	// ErrNotTrained is returned when querying an untrained predictor.
	ErrNotTrained = errors.New("core: predictor is not trained")
	// ErrNoExamples is returned when training on an empty knowledge base.
	ErrNoExamples = errors.New("core: knowledge base is empty")
	// ErrUnknownClassifier is returned for unrecognized classifier names.
	ErrUnknownClassifier = errors.New("core: unknown classifier")
)

// errShape is returned for ragged or mismatched knowledge-base matrices.
var errShape = errors.New("core: inconsistent dataset shape")

// Classifier names accepted by ClassifierFactory — the §3.2 line-up.
const (
	ClassifierRandomForest = "random-forest"
	ClassifierSVM          = "svm"
	ClassifierLogistic     = "logistic"
	ClassifierNaiveBayes   = "naive-bayes"
	ClassifierDecisionTree = "decision-tree"
	ClassifierMLP          = "mlp"
	ClassifierKNN          = "knn"
)

// ClassifierNames lists every supported classifier name.
func ClassifierNames() []string {
	return []string{
		ClassifierRandomForest,
		ClassifierSVM,
		ClassifierLogistic,
		ClassifierNaiveBayes,
		ClassifierDecisionTree,
		ClassifierMLP,
		ClassifierKNN,
	}
}

// ClassifierFactory resolves a classifier name to a deterministic factory.
// Random Forest is SmartFlux's default (§3.2: best ROC area with default
// parameterization); the others support the classifier-selection experiment.
func ClassifierFactory(name string, seed int64) (func() ml.Classifier, error) {
	switch name {
	case ClassifierRandomForest, "":
		return func() ml.Classifier { return ml.NewForest(ml.ForestConfig{Seed: seed}) }, nil
	case ClassifierSVM:
		return func() ml.Classifier { return ml.NewSVM(ml.SVMConfig{Seed: seed}) }, nil
	case ClassifierLogistic:
		return func() ml.Classifier { return ml.NewLogistic(ml.LogisticConfig{Seed: seed}) }, nil
	case ClassifierNaiveBayes:
		return func() ml.Classifier { return ml.NewNaiveBayes() }, nil
	case ClassifierDecisionTree:
		return func() ml.Classifier { return ml.NewTree(ml.TreeConfig{Criterion: ml.Entropy, Seed: seed}) }, nil
	case ClassifierMLP:
		return func() ml.Classifier { return ml.NewMLP(ml.MLPConfig{Seed: seed}) }, nil
	case ClassifierKNN:
		return func() ml.Classifier { return ml.NewKNN(ml.KNNConfig{}) }, nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownClassifier, name)
	}
}

// Dataset is the knowledge base's multi-label log (§3.1's classification
// matrix): per wave, the input-impact vector ι of the gated steps and one 0/1
// label per gated step.
type Dataset struct {
	X [][]float64
	Y [][]int
}

// Validate checks shape invariants.
func (d Dataset) Validate() error {
	if len(d.X) == 0 {
		return fmt.Errorf("%w: empty", errShape)
	}
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("%w: %d feature rows vs %d label rows", errShape, len(d.X), len(d.Y))
	}
	if len(d.Y[0]) == 0 {
		return fmt.Errorf("%w: no labels", errShape)
	}
	width, labels := len(d.X[0]), len(d.Y[0])
	for i := range d.X {
		if len(d.X[i]) != width || len(d.Y[i]) != labels {
			return fmt.Errorf("%w: row %d", errShape, i)
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
	d.X = append(d.X, append([]float64(nil), x...))
	d.Y = append(d.Y, append([]int(nil), y...))
}

// clone copies the example lists, so the copy keeps its length and order
// while the original grows; the examples themselves are shared.
func (d Dataset) clone() Dataset {
	return Dataset{X: append([][]float64(nil), d.X...), Y: append([][]int(nil), d.Y...)}
}

// labelPlan is one gated step's learning problem, the unit every fit works
// on. §2 triggers a step on what its own ι predicts, so the step's model sees
// that one column: it also keeps application-time inputs inside the training
// distribution when another step's impact drifts (a frozen upstream container
// pins a downstream impact at zero).
type labelPlan struct {
	data  ml.Dataset // the step's own ι column against its label
	th    float64    // decision threshold
	folds []eval.Fold
	k     int // test-phase fold count, reported in CVResult.Folds; < 2 reports chance
}

// planLabels builds one plan per label of data. thresholds may be nil (0.5
// everywhere), hold one value applied to all labels, or one value per label.
// A non-nil rng asks for the test phase: each label's stratified folds — k of
// them, fewer on a tiny log — are drawn from it in label order.
func planLabels(data Dataset, thresholds []float64, k int, rng *rand.Rand) ([]labelPlan, error) {
	if data.Len() == 0 {
		return nil, ErrNoExamples
	}
	if err := data.Validate(); err != nil {
		return nil, err
	}
	labels, n := data.Labels(), data.Len()
	if len(data.X[0]) != labels {
		return nil, fmt.Errorf("core: own-impact features need one impact per label, got %d impacts for %d labels", len(data.X[0]), labels)
	}
	if len(thresholds) > 1 && len(thresholds) != labels {
		return nil, fmt.Errorf("core: %d thresholds for %d labels", len(thresholds), labels)
	}
	plans := make([]labelPlan, labels)
	for l := range plans {
		col := make([]float64, n)
		x := make([][]float64, n)
		y := make([]int, n)
		for i := range data.X {
			col[i] = data.X[i][l]
			x[i] = col[i : i+1 : i+1]
			y[i] = data.Y[i][l]
		}
		p := &plans[l]
		p.data = ml.Dataset{X: x, Y: y}
		switch len(thresholds) {
		case 0:
			p.th = 0.5
		case 1:
			p.th = thresholds[0]
		default:
			p.th = thresholds[l]
		}
		if rng == nil {
			continue
		}
		// Tiny logs fall back to the largest workable fold count.
		p.k = min(k, n/2)
		if p.k >= 2 {
			var err error
			if p.folds, err = eval.StratifiedKFold(y, p.k, rng); err != nil {
				return nil, fmt.Errorf("test label %d: %w", l, err)
			}
		}
	}
	return plans, nil
}

// fitPlans is the one fan-out of training: every label's final fit, then
// every (label, fold) cross-validation fit, on at most workers goroutines; a
// forest fits its trees on its task's goroutine.
// Each task builds its own classifier from factory (which must therefore be
// safe for concurrent calls; every factory in this module is) and writes only
// its own slot, so the outcome is that of a sequential run — including the
// error, the first in task order.
func fitPlans(factory func() ml.Classifier, plans []labelPlan, workers int) (*Predictor, [][]eval.FoldScores, error) {
	p := &Predictor{models: make([]ml.Classifier, len(plans)), thresholds: make([]float64, len(plans))}
	scored := make([][]eval.FoldScores, len(plans))
	type task struct{ l, fold int } // fold -1 is the label's final fit
	var tasks []task
	for l := range plans {
		p.thresholds[l] = plans[l].th
		scored[l] = make([]eval.FoldScores, len(plans[l].folds))
		tasks = append(tasks, task{l, -1})
	}
	for l := range plans {
		for fold := range plans[l].folds {
			tasks = append(tasks, task{l, fold})
		}
	}
	run := func(t task) error {
		plan := &plans[t.l]
		if t.fold >= 0 {
			var err error
			if scored[t.l][t.fold], err = eval.ScoreFold(factory, plan.data, plan.folds[t.fold], t.fold, plan.th); err != nil {
				return fmt.Errorf("test label %d: %w", t.l, err)
			}
			return nil
		}
		clf := factory()
		if err := clf.Fit(plan.data); err != nil {
			return fmt.Errorf("train predictor: label %d: %w", t.l, err)
		}
		p.models[t.l] = clf
		return nil
	}
	// One worker runs the tasks on the caller, one after another, in task order.
	errs := make([]error, len(tasks))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, t := range tasks {
		if workers == 1 {
			errs[i] = run(t)
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			errs[i] = run(t)
			<-sem
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return p, scored, nil
}

// Predictor is the trained multi-label model: one binary classifier per
// gated step, fitted on that step's own impact, and the step's decision
// threshold.
type Predictor struct {
	models     []ml.Classifier
	thresholds []float64
}

// NewPredictor trains a predictor on the dataset using the classifier
// factory. thresholds may be nil (0.5 everywhere), hold one value applied to
// all labels, or one value per label. Thresholds below 0.5 bias the decision
// toward executing — the paper's recall optimization (§5.2).
//
// The per-label models train concurrently (bounded by runtime.GOMAXPROCS(0)),
// so factory must be safe for concurrent calls; every factory in this module
// is. The fitted predictor is identical to a sequential fit.
func NewPredictor(factory func() ml.Classifier, data Dataset, thresholds []float64) (*Predictor, error) {
	plans, err := planLabels(data, thresholds, 0, nil)
	if err != nil {
		return nil, err
	}
	p, _, err := fitPlans(factory, plans, Config{}.workers())
	return p, err
}

// check rejects an impact vector that is not one impact per label.
func (p *Predictor) check(impacts []float64) error {
	if len(impacts) != len(p.models) {
		return fmt.Errorf("core: %d impacts for %d labels", len(impacts), len(p.models))
	}
	return nil
}

// Scores returns the per-label execution confidences for an impact vector.
func (p *Predictor) Scores(impacts []float64) ([]float64, error) {
	if err := p.check(impacts); err != nil {
		return nil, err
	}
	scores := make([]float64, len(p.models))
	for l, m := range p.models {
		s, err := m.Score(impacts[l : l+1])
		if err != nil {
			return nil, fmt.Errorf("label %d: %w", l, err)
		}
		scores[l] = s
	}
	return scores, nil
}

// Decide returns whether label l should execute given the impact vector. It
// scores label l's model alone, on the step's own impact.
func (p *Predictor) Decide(l int, impacts []float64) (bool, error) {
	if err := p.check(impacts); err != nil {
		return false, err
	}
	if l < 0 || l >= len(p.models) {
		return false, fmt.Errorf("core: label index %d out of range [0,%d)", l, len(p.models))
	}
	s, err := p.models[l].Score(impacts[l : l+1])
	if err != nil {
		return false, fmt.Errorf("label %d: %w", l, err)
	}
	return s >= p.thresholds[l], nil
}

// Labels returns the number of labels the predictor was trained on.
func (p *Predictor) Labels() int { return len(p.models) }
