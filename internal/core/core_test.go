package core

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"smartflux/internal/ml"
)

// syntheticLog builds a multi-label training log where label l fires iff
// impact l exceeds 5 (plus noise-free separation).
func syntheticLog(n, labels int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	var d Dataset
	for i := 0; i < n; i++ {
		x := make([]float64, labels)
		y := make([]int, labels)
		for l := range x {
			x[l] = rng.Float64() * 10
			if x[l] > 5 {
				y[l] = 1
			}
		}
		d.Append(x, y)
	}
	return d
}

func TestDatasetValidate(t *testing.T) {
	tests := []struct {
		name string
		d    Dataset
		ok   bool
	}{
		{name: "empty", d: Dataset{}},
		{name: "mismatch", d: Dataset{X: [][]float64{{1}}, Y: [][]int{{1}, {0}}}},
		{name: "no labels", d: Dataset{X: [][]float64{{1}}, Y: [][]int{{}}}},
		{name: "ragged labels", d: Dataset{X: [][]float64{{1}, {2}}, Y: [][]int{{1}, {1, 0}}}},
		{name: "ok", d: Dataset{X: [][]float64{{1}, {2}}, Y: [][]int{{1}, {0}}}, ok: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.d.Validate()
			if tt.ok && err != nil {
				t.Errorf("unexpected error %v", err)
			}
			if !tt.ok && !errors.Is(err, errShape) {
				t.Errorf("got %v, want a shape error", err)
			}
		})
	}
}

func TestDatasetAppendCopies(t *testing.T) {
	var d Dataset
	x := []float64{1, 2}
	y := []int{1, 0}
	d.Append(x, y)
	x[0] = 99
	y[0] = 0
	if d.X[0][0] != 1 || d.Y[0][0] != 1 {
		t.Error("Append must copy its arguments")
	}
}

func TestDatasetLabels(t *testing.T) {
	d := syntheticLog(10, 2, 2)
	if d.Labels() != 2 || (Dataset{}).Labels() != 0 {
		t.Errorf("Labels = %d", d.Labels())
	}
}

func TestKnowledgeBase(t *testing.T) {
	sess := NewSession(Config{Seed: 3})
	if cp, err := sess.Checkpoint(); err != nil || len(cp.KBX) != 0 {
		t.Fatalf("fresh KB: %d examples, err %v; want empty", len(cp.KBX), err)
	}
	sess.ObserveTrainingWave([]float64{1, 2}, []int{1, -1}) // -1 recorded as 0
	sess.ObserveTrainingWave([]float64{3, 4}, []int{0, 1})
	cp, err := sess.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.KBX) != 2 || len(cp.KBY) != 2 || cp.FittedOn != 0 {
		t.Fatalf("checkpoint holds %d/%d examples fitted on %d; want 2/2, 0", len(cp.KBX), len(cp.KBY), cp.FittedOn)
	}
	if cp.KBY[0][0] != 1 || cp.KBY[0][1] != 0 {
		t.Error("-1 labels must clamp to 0")
	}
}

// TestKnowledgeBaseBesideReaders appends examples to a trained session while
// another goroutine checkpoints it and asks for decisions: under -race it
// holds the knowledge base to the session lock, and every checkpoint's
// predictor prefix lies within the examples it carries.
func TestKnowledgeBaseBesideReaders(t *testing.T) {
	sess := trainedSession(t, Config{Seed: 3})
	const waves = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < waves; i++ {
			sess.ObserveTrainingWave([]float64{float64(i % 11), 1}, []int{i % 2, -1})
		}
	}()
	for i := 0; i < waves; i++ {
		cp, err := sess.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if cp.FittedOn > len(cp.KBX) || len(cp.KBX) != len(cp.KBY) {
			t.Fatalf("checkpoint fitted on %d of %d examples (%d label rows)", cp.FittedOn, len(cp.KBX), len(cp.KBY))
		}
		sess.Decide(i, i%2, []float64{float64(i % 11), 1})
		if len(sess.LastTestReport().PerLabel) != 2 {
			t.Fatal("trained session lost its test report")
		}
	}
	wg.Wait()
	if cp, _ := sess.Checkpoint(); len(cp.KBX) != 200+waves {
		t.Fatalf("knowledge base holds %d examples, want %d", len(cp.KBX), 200+waves)
	}
}

func TestClassifierFactoryNames(t *testing.T) {
	for _, name := range ClassifierNames() {
		factory, err := ClassifierFactory(name, 1)
		if err != nil {
			t.Errorf("ClassifierFactory(%q): %v", name, err)
			continue
		}
		if factory() == nil {
			t.Errorf("factory %q returned nil", name)
		}
	}
	if _, err := ClassifierFactory("", 1); err != nil {
		t.Errorf("empty name must default to RF: %v", err)
	}
	if _, err := ClassifierFactory("bogus", 1); !errors.Is(err, ErrUnknownClassifier) {
		t.Errorf("want ErrUnknownClassifier, got %v", err)
	}
}

func TestPredictorOwnImpactLearnsPerLabel(t *testing.T) {
	data := syntheticLog(300, 2, 7)
	factory, _ := ClassifierFactory(ClassifierRandomForest, 1)
	p, err := NewPredictor(factory, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.models) != 2 {
		t.Errorf("labels = %d", len(p.models))
	}
	run, err := p.Decide(0, []float64{9, 1})
	if err != nil || !run {
		t.Errorf("Decide(0, high impact) = %v, %v", run, err)
	}
	run, err = p.Decide(1, []float64{9, 1})
	if err != nil || run {
		t.Errorf("Decide(1, low impact) = %v, %v", run, err)
	}
	if _, err := p.Decide(9, []float64{9, 1}); err == nil {
		t.Error("out-of-range label must fail")
	}
	for _, impacts := range [][]float64{{9}, {9, 1, 1}} {
		if _, err := p.Decide(0, impacts); err == nil {
			t.Errorf("Decide over %d impacts for 2 labels must fail", len(impacts))
		}
	}
}

func TestPredictorThresholdForms(t *testing.T) {
	data := syntheticLog(100, 2, 9)
	factory, _ := ClassifierFactory(ClassifierRandomForest, 1)
	for _, thresholds := range [][]float64{nil, {0.3}, {0.3, 0.6}} {
		if _, err := NewPredictor(factory, data, thresholds); err != nil {
			t.Errorf("thresholds %v: %v", thresholds, err)
		}
	}
	if _, err := NewPredictor(factory, data, []float64{0.1, 0.2, 0.3}); err == nil {
		t.Error("mismatched threshold count must fail")
	}
	if _, err := NewPredictor(factory, Dataset{}, nil); !errors.Is(err, ErrNoExamples) {
		t.Errorf("want ErrNoExamples, got %v", err)
	}
}

// countingClassifier scores its one feature scaled to [0, 1] and counts its
// Score calls.
type countingClassifier struct{ calls int }

func (c *countingClassifier) Fit(ml.Dataset) error { return nil }
func (c *countingClassifier) Score(x []float64) (float64, error) {
	c.calls++
	return x[0] / 10, nil
}

// TestPredictorDecideScoresOneModel: a decision is about one step, so Decide
// asks that step's model alone, on the step's own impact; Scores asks each
// model once.
func TestPredictorDecideScoresOneModel(t *testing.T) {
	var mu sync.Mutex
	var models []*countingClassifier
	factory := func() ml.Classifier {
		mu.Lock()
		defer mu.Unlock()
		c := &countingClassifier{}
		models = append(models, c)
		return c
	}
	p, err := NewPredictor(factory, syntheticLog(50, 3, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	calls := func() (total int) {
		for _, c := range models {
			total += c.calls
		}
		return total
	}
	impacts := []float64{9, 1, 7}
	for l, want := range []bool{true, false, true} {
		before := calls()
		run, err := p.Decide(l, impacts)
		if err != nil || run != want {
			t.Errorf("Decide(%d) = %v, %v; want %v", l, run, err, want)
		}
		if n := calls() - before; n != 1 {
			t.Errorf("Decide(%d) scored %d models, want 1", l, n)
		}
	}
	for _, c := range models {
		c.calls = 0
	}
	scores, err := p.Scores(impacts)
	if err != nil || len(scores) != 3 || scores[0] != 0.9 || scores[1] != 0.1 || scores[2] != 0.7 {
		t.Fatalf("Scores = %v, %v", scores, err)
	}
	for l, c := range models {
		if c.calls != 1 {
			t.Errorf("Scores called model %d %d times, want once", l, c.calls)
		}
	}
}

func TestPredictorOwnImpactRequiresSquareData(t *testing.T) {
	// 3 features but 2 labels cannot use own-impact mode.
	var d Dataset
	d.Append([]float64{1, 2, 3}, []int{0, 1})
	factory, _ := ClassifierFactory(ClassifierRandomForest, 1)
	if _, err := NewPredictor(factory, d, nil); err == nil {
		t.Error("own-impact with features != labels must fail")
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseTraining.String() != "training" ||
		PhaseTesting.String() != "testing" ||
		PhaseApplication.String() != "application" {
		t.Error("phase strings")
	}
	if Phase(9).String() == "" {
		t.Error("unknown phase must render")
	}
}

func TestSessionLifecycle(t *testing.T) {
	sess := NewSession(Config{Seed: 1})
	if sess.Phase() != PhaseTraining {
		t.Error("fresh session must be training")
	}
	// Before training, Decide is synchronous (always true).
	if !sess.Decide(0, 0, []float64{0}) {
		t.Error("untrained session must execute everything")
	}
	if _, err := sess.Predictor(); !errors.Is(err, ErrNotTrained) {
		t.Errorf("want ErrNotTrained, got %v", err)
	}

	log := syntheticLog(200, 2, 13)
	for i := range log.X {
		sess.ObserveTrainingWave(log.X[i], log.Y[i])
	}
	if sess.KnowledgeBase().Len() != 200 {
		t.Error("KB must hold observed waves")
	}
	report, err := sess.Train()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Accepted {
		t.Error("training on separable data must be accepted")
	}
	if len(report.PerLabel) != 2 {
		t.Errorf("per-label reports: %d", len(report.PerLabel))
	}
	macro := report.Macro()
	if macro.Accuracy < 0.9 {
		t.Errorf("macro accuracy %.3f", macro.Accuracy)
	}
	if sess.Phase() != PhaseApplication {
		t.Error("accepted session must move to application")
	}
	if sess.Name() != "smartflux" {
		t.Error("session name")
	}

	// Decisions now follow the learned boundary.
	if !sess.Decide(0, 0, []float64{9, 9}) {
		t.Error("high impact should execute")
	}
	if sess.Decide(0, 0, []float64{1, 1}) {
		t.Error("low impact should skip")
	}
	if got := sess.LastTestReport(); !got.Accepted {
		t.Error("LastTestReport lost")
	}
	if _, err := sess.Predictor(); err != nil {
		t.Errorf("Predictor after train: %v", err)
	}
}

func TestSessionRejectsOnQualityMinimums(t *testing.T) {
	// Labels are pure noise: accuracy and recall ≈ 0.5 < 0.95 → not accepted.
	for _, cfg := range []Config{{Seed: 1, MinAccuracy: 0.95}, {Seed: 1, MinRecall: 0.95}} {
		rng := rand.New(rand.NewSource(17))
		sess := NewSession(cfg)
		for i := 0; i < 100; i++ {
			sess.ObserveTrainingWave([]float64{rng.Float64()}, []int{rng.Intn(2)})
		}
		report, err := sess.Train()
		if err != nil {
			t.Fatal(err)
		}
		if report.Accepted {
			t.Errorf("noise labels must not satisfy %+v", cfg)
		}
		if sess.Phase() != PhaseTraining {
			t.Errorf("%+v: rejected session must stay in training", cfg)
		}
		// Decide stays synchronous.
		if !sess.Decide(0, 0, []float64{0}) {
			t.Errorf("%+v: rejected session must keep executing everything", cfg)
		}
	}
}

func TestSessionCustomFactoryAndClassifier(t *testing.T) {
	log := syntheticLog(120, 1, 19)
	for _, cfg := range []Config{
		{Seed: 1, Factory: func() ml.Classifier { return ml.NewNaiveBayes() }},
		{Seed: 1, Factory: func() ml.Classifier { return ml.NewKNN(ml.KNNConfig{}) }},
		{Seed: 1, PositiveWeight: 4},
	} {
		sess := NewSession(cfg)
		for i := range log.X {
			sess.ObserveTrainingWave(log.X[i], log.Y[i])
		}
		if _, err := sess.Train(); err != nil {
			t.Errorf("config %+v: %v", cfg, err)
		}
	}
}

// TestSessionTrainRejectsNaNImpact: a NaN ι cannot be ordered against any
// split threshold, so training fails naming the label, the wave and the
// column instead of fitting a model on it.
func TestSessionTrainRejectsNaNImpact(t *testing.T) {
	log := syntheticLog(60, 2, 23)
	log.X[17][1] = math.NaN()
	sess := NewSession(Config{Seed: 1, PositiveWeight: 4})
	for i := range log.X {
		sess.ObserveTrainingWave(log.X[i], log.Y[i])
	}
	_, err := sess.Train()
	if !errors.Is(err, ml.ErrNaNFeature) || !strings.Contains(err.Error(), "label 1: ml: feature value is NaN: row 17, column 0") {
		t.Fatalf("want the NaN error for label 1, row 17, got %v", err)
	}
	if _, err := sess.Predictor(); !errors.Is(err, ErrNotTrained) || sess.Phase() != PhaseTraining {
		t.Errorf("a failed train left a predictor (%v) or phase %v", err, sess.Phase())
	}
}

func TestTestReportMacroEmpty(t *testing.T) {
	if got := (TestReport{}).Macro(); got.Accuracy != 0 {
		t.Error("empty macro")
	}
}
