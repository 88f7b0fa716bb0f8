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
	"sync"

	"smartflux/internal/ml"
	"smartflux/internal/ml/multilabel"
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

// KnowledgeBase stores the training tuples collected during the training
// phase: per wave, the input-impact vector ι of every gated step and the
// binary vector indicating whether each step's maxε was (simulated to be)
// reached. It is safe for concurrent use.
type KnowledgeBase struct {
	mu   sync.RWMutex
	data multilabel.Dataset
}

// NewKnowledgeBase creates an empty knowledge base.
func NewKnowledgeBase() *KnowledgeBase { return &KnowledgeBase{} }

// Append logs one wave's example. Labels of -1 (step not evaluated this
// wave) are recorded as 0 — no execution required.
func (kb *KnowledgeBase) Append(impacts []float64, labels []int) {
	clean := make([]int, len(labels))
	for i, l := range labels {
		if l == 1 {
			clean[i] = 1
		}
	}
	kb.mu.Lock()
	defer kb.mu.Unlock()
	kb.data.Append(impacts, clean)
}

// Len returns the number of logged examples.
func (kb *KnowledgeBase) Len() int {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	return kb.data.Len()
}

// Snapshot returns a copy-safe view of the dataset.
func (kb *KnowledgeBase) Snapshot() multilabel.Dataset {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	x := make([][]float64, len(kb.data.X))
	copy(x, kb.data.X)
	y := make([][]int, len(kb.data.Y))
	copy(y, kb.data.Y)
	return multilabel.Dataset{X: x, Y: y}
}

// Reset drops all logged examples.
func (kb *KnowledgeBase) Reset() {
	kb.mu.Lock()
	defer kb.mu.Unlock()
	kb.data = multilabel.Dataset{}
}

// FeatureMode selects which impact features each per-label model sees.
type FeatureMode int

const (
	// FeatureOwnImpact trains each step's model on that step's own input
	// impact only. This is the default: §2 frames the decision as
	// "trigger when we predict through ι (of the step) that ε > maxε",
	// and restricting features keeps application-time inputs within the
	// training distribution even when other steps' impacts drift (e.g. a
	// frozen upstream container pinning a downstream impact at zero).
	FeatureOwnImpact FeatureMode = iota + 1
	// FeatureFullVector trains each model on the entire impact vector,
	// the literal reading of the §3.1 classification matrix.
	FeatureFullVector
)

// String implements fmt.Stringer.
func (m FeatureMode) String() string {
	switch m {
	case FeatureOwnImpact:
		return "own-impact"
	case FeatureFullVector:
		return "full-vector"
	default:
		return fmt.Sprintf("FeatureMode(%d)", int(m))
	}
}

// Predictor wraps the trained multi-label model and its decision thresholds.
type Predictor struct {
	br          *multilabel.BinaryRelevance
	thresholds  []float64
	featureMode FeatureMode
	labels      int
}

// NewPredictor trains a predictor on the dataset using the classifier
// factory. thresholds may be nil (0.5 everywhere), hold one value applied to
// all labels, or one value per label. Thresholds below 0.5 bias the decision
// toward executing — the paper's recall optimization (§5.2). featureMode 0
// defaults to FeatureOwnImpact.
//
// The per-label models train concurrently (one goroutine per label, bounded
// by runtime.GOMAXPROCS(0)), so factory must be safe for concurrent calls;
// every factory in this module is. The fitted predictor is identical to a
// sequential fit.
func NewPredictor(factory func() ml.Classifier, data multilabel.Dataset, thresholds []float64, featureMode FeatureMode) (*Predictor, error) {
	return newPredictor(factory, data, thresholds, featureMode, 0)
}

// newPredictor is NewPredictor with an explicit label-fit parallelism bound
// (0 = GOMAXPROCS, 1 = sequential).
func newPredictor(factory func() ml.Classifier, data multilabel.Dataset, thresholds []float64, featureMode FeatureMode, parallelism int) (*Predictor, error) {
	if data.Len() == 0 {
		return nil, ErrNoExamples
	}
	if featureMode == 0 {
		featureMode = FeatureOwnImpact
	}
	labels := data.Labels()
	if featureMode == FeatureOwnImpact {
		if err := data.Validate(); err != nil {
			return nil, err
		}
		if len(data.X[0]) != labels {
			return nil, fmt.Errorf("core: own-impact features need one impact per label, got %d impacts for %d labels", len(data.X[0]), labels)
		}
	}
	br := multilabel.NewBinaryRelevance(factory)
	if parallelism != 1 {
		br.SetParallelism(parallelism)
	}
	if featureMode == FeatureOwnImpact {
		cols := make([][]int, labels)
		for l := range cols {
			cols[l] = []int{l}
		}
		br.SetFeatureColumns(cols)
	}
	if err := br.Fit(data); err != nil {
		return nil, fmt.Errorf("train predictor: %w", err)
	}
	th := make([]float64, labels)
	switch len(thresholds) {
	case 0:
		for i := range th {
			th[i] = 0.5
		}
	case 1:
		for i := range th {
			th[i] = thresholds[0]
		}
	case labels:
		copy(th, thresholds)
	default:
		return nil, fmt.Errorf("core: %d thresholds for %d labels", len(thresholds), labels)
	}
	return &Predictor{br: br, thresholds: th, featureMode: featureMode, labels: labels}, nil
}

// Scores returns the per-label execution confidences for an impact vector.
func (p *Predictor) Scores(impacts []float64) ([]float64, error) {
	return p.br.Scores(impacts)
}

// Decide returns whether label stepIdx should execute given the impact
// vector.
func (p *Predictor) Decide(stepIdx int, impacts []float64) (bool, error) {
	scores, err := p.Scores(impacts)
	if err != nil {
		return false, err
	}
	if stepIdx < 0 || stepIdx >= len(scores) {
		return false, fmt.Errorf("core: label index %d out of range [0,%d)", stepIdx, len(scores))
	}
	return scores[stepIdx] >= p.thresholds[stepIdx], nil
}

// Labels returns the number of labels the predictor was trained on.
func (p *Predictor) Labels() int { return p.labels }
