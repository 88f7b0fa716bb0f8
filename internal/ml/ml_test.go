package ml

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// separable builds a cleanly separable 1-D dataset: class 1 iff x > 5.
func separable(n int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		v := rng.Float64() * 10
		x[i] = []float64{v}
		if v > 5 {
			y[i] = 1
		}
	}
	return Dataset{X: x, Y: y}
}

// xorDataset is a 2-D non-linearly-separable problem.
func xorDataset(n int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		a, b := rng.Float64(), rng.Float64()
		x[i] = []float64{a, b}
		if (a > 0.5) != (b > 0.5) {
			y[i] = 1
		}
	}
	return Dataset{X: x, Y: y}
}

// trainAccuracy fits the classifier and returns its training accuracy at
// threshold 0.5.
func trainAccuracy(t *testing.T, c Classifier, d Dataset) float64 {
	t.Helper()
	if err := c.Fit(d); err != nil {
		t.Fatalf("fit: %v", err)
	}
	var correct int
	for i, row := range d.X {
		score, err := c.Score(row)
		if err != nil {
			t.Fatalf("score: %v", err)
		}
		if score >= 0.5 == (d.Y[i] == 1) {
			correct++
		}
	}
	return float64(correct) / float64(d.Len())
}

func TestDatasetValidate(t *testing.T) {
	tests := []struct {
		name    string
		d       Dataset
		wantErr error
	}{
		{name: "empty", d: Dataset{}, wantErr: ErrEmptyDataset},
		{name: "length mismatch", d: Dataset{X: [][]float64{{1}}, Y: []int{0, 1}}, wantErr: ErrDimensionMismatch},
		{name: "ragged", d: Dataset{X: [][]float64{{1}, {1, 2}}, Y: []int{0, 1}}, wantErr: ErrDimensionMismatch},
		{name: "bad label", d: Dataset{X: [][]float64{{1}}, Y: []int{2}}, wantErr: ErrBadLabel},
		{name: "NaN feature", d: Dataset{X: [][]float64{{1, 2}, {3, math.NaN()}}, Y: []int{0, 1}}, wantErr: ErrNaNFeature},
		{name: "infinite feature", d: Dataset{X: [][]float64{{math.Inf(-1)}, {math.Inf(1)}}, Y: []int{0, 1}}},
		{name: "valid", d: Dataset{X: [][]float64{{1}, {2}}, Y: []int{0, 1}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.d.Validate()
			if tt.wantErr == nil && err != nil {
				t.Errorf("unexpected error %v", err)
			}
			if tt.wantErr != nil && !errors.Is(err, tt.wantErr) {
				t.Errorf("got %v, want %v", err, tt.wantErr)
			}
			if tt.wantErr == ErrNaNFeature && err.Error() != "ml: feature value is NaN: row 1, column 1" {
				t.Errorf("NaN error %q does not name row 1, column 1", err)
			}
		})
	}
}

func TestDatasetHelpers(t *testing.T) {
	d := separable(20, 1)
	if d.Features() != 1 {
		t.Errorf("Features = %d", d.Features())
	}
	sub := d.Subset([]int{0, 2, 4})
	if sub.Len() != 3 || sub.Y[1] != d.Y[2] {
		t.Error("Subset mismapped")
	}
	if d.Positives() == 0 || d.Positives() == d.Len() {
		t.Error("separable dataset should have both classes")
	}
}

// classifiersUnderTest returns one instance of every classifier.
func classifiersUnderTest() map[string]func() Classifier {
	return map[string]func() Classifier{
		"tree":     func() Classifier { return NewTree(TreeConfig{Seed: 3}) },
		"forest":   func() Classifier { return NewForest(ForestConfig{Trees: 30, Seed: 3}) },
		"logistic": func() Classifier { return NewLogistic(LogisticConfig{Seed: 3}) },
		"nb":       func() Classifier { return NewNaiveBayes() },
		"svm":      func() Classifier { return NewSVM(SVMConfig{Seed: 3}) },
		"knn":      func() Classifier { return NewKNN(KNNConfig{}) },
		"mlp":      func() Classifier { return NewMLP(MLPConfig{Seed: 3, Epochs: 150}) },
	}
}

func TestAllClassifiersLearnSeparableProblem(t *testing.T) {
	d := separable(200, 7)
	for name, factory := range classifiersUnderTest() {
		t.Run(name, func(t *testing.T) {
			acc := trainAccuracy(t, factory(), d)
			if acc < 0.9 {
				t.Errorf("training accuracy %.3f < 0.9 on a separable problem", acc)
			}
		})
	}
}

func TestNonlinearClassifiersLearnXOR(t *testing.T) {
	d := xorDataset(300, 11)
	for _, name := range []string{"tree", "forest", "knn", "mlp"} {
		factory := classifiersUnderTest()[name]
		t.Run(name, func(t *testing.T) {
			acc := trainAccuracy(t, factory(), d)
			if acc < 0.85 {
				t.Errorf("training accuracy %.3f < 0.85 on XOR", acc)
			}
		})
	}
}

func TestLinearModelsFailXOR(t *testing.T) {
	// Sanity check that XOR is actually non-linear: logistic regression
	// should hover near chance.
	d := xorDataset(300, 13)
	acc := trainAccuracy(t, NewLogistic(LogisticConfig{Seed: 3}), d)
	if acc > 0.75 {
		t.Errorf("logistic regression scored %.3f on XOR; dataset is not XOR-like", acc)
	}
}

func TestClassifierErrorsBeforeFit(t *testing.T) {
	for name, factory := range classifiersUnderTest() {
		t.Run(name, func(t *testing.T) {
			if _, err := factory().Score([]float64{1}); !errors.Is(err, ErrNotFitted) {
				t.Errorf("want ErrNotFitted, got %v", err)
			}
		})
	}
}

func TestClassifierDimensionMismatch(t *testing.T) {
	d := separable(50, 5)
	for name, factory := range classifiersUnderTest() {
		t.Run(name, func(t *testing.T) {
			c := factory()
			if err := c.Fit(d); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Score([]float64{1, 2, 3}); !errors.Is(err, ErrDimensionMismatch) {
				t.Errorf("want ErrDimensionMismatch, got %v", err)
			}
		})
	}
}

func TestClassifierDeterminism(t *testing.T) {
	d := separable(100, 17)
	probe := []float64{5.1}
	for name, factory := range classifiersUnderTest() {
		t.Run(name, func(t *testing.T) {
			a, b := factory(), factory()
			if err := a.Fit(d); err != nil {
				t.Fatal(err)
			}
			if err := b.Fit(d); err != nil {
				t.Fatal(err)
			}
			sa, _ := a.Score(probe)
			sb, _ := b.Score(probe)
			if sa != sb {
				t.Errorf("same seed, different scores: %v vs %v", sa, sb)
			}
		})
	}
}

func TestScoresAreProbabilities(t *testing.T) {
	d := separable(100, 19)
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		for _, factory := range classifiersUnderTest() {
			c := factory()
			if err := c.Fit(d); err != nil {
				return false
			}
			s, err := c.Score([]float64{v})
			if err != nil || s < 0 || s > 1 || math.IsNaN(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSingleClassTraining(t *testing.T) {
	d := Dataset{X: [][]float64{{1}, {2}, {3}}, Y: []int{1, 1, 1}}
	for name, factory := range classifiersUnderTest() {
		t.Run(name, func(t *testing.T) {
			c := factory()
			if err := c.Fit(d); err != nil {
				t.Fatalf("fit single class: %v", err)
			}
			s, err := c.Score([]float64{2})
			if err != nil {
				t.Fatal(err)
			}
			if s < 0.5 {
				t.Errorf("all-positive training should score >= 0.5, got %v", s)
			}
		})
	}
}

func TestTreeRespectsMaxDepth(t *testing.T) {
	d := separable(300, 23)
	tree := NewTree(TreeConfig{MaxDepth: 2, Seed: 1})
	if err := tree.Fit(d); err != nil {
		t.Fatal(err)
	}
	if depth := tree.Depth(); depth > 2 {
		t.Errorf("depth %d exceeds MaxDepth 2", depth)
	}
	if tree.NodeCount() == 0 {
		t.Error("fitted tree has no nodes")
	}
}

func TestTreeMinLeaf(t *testing.T) {
	d := separable(100, 29)
	tree := NewTree(TreeConfig{MinLeaf: 40, Seed: 1})
	if err := tree.Fit(d); err != nil {
		t.Fatal(err)
	}
	// With MinLeaf 40 over 100 examples the tree can split at most once.
	if tree.Depth() > 1 {
		t.Errorf("depth %d with MinLeaf 40", tree.Depth())
	}
}

func TestTreeEntropyCriterion(t *testing.T) {
	d := separable(200, 31)
	tree := NewTree(TreeConfig{Criterion: Entropy, Seed: 1})
	if err := tree.Fit(d); err != nil {
		t.Fatal(err)
	}
	if acc := trainAccuracy(t, NewTree(TreeConfig{Criterion: Entropy, Seed: 1}), d); acc < 0.95 {
		t.Errorf("entropy tree accuracy %.3f", acc)
	}
	if Gini.String() != "gini" || Entropy.String() != "entropy" {
		t.Error("criterion strings")
	}
}

func TestForestPositiveWeightBoostsRecall(t *testing.T) {
	// Imbalanced, noisy dataset: 10% positives.
	rng := rand.New(rand.NewSource(41))
	n := 400
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		v := rng.Float64() * 10
		x[i] = []float64{v + rng.NormFloat64()*2}
		if v > 9 {
			y[i] = 1
		}
	}
	d := Dataset{X: x, Y: y}

	recall := func(weight float64) float64 {
		f := NewForest(ForestConfig{Trees: 40, Seed: 5, PositiveWeight: weight})
		if err := f.Fit(d); err != nil {
			t.Fatal(err)
		}
		var tp, fn int
		for i, row := range d.X {
			if d.Y[i] != 1 {
				continue
			}
			if score, _ := f.Score(row); score >= 0.5 {
				tp++
			} else {
				fn++
			}
		}
		if tp+fn == 0 {
			return 1
		}
		return float64(tp) / float64(tp+fn)
	}
	plain, weighted := recall(1), recall(8)
	if weighted < plain {
		t.Errorf("PositiveWeight should not hurt recall: %.3f -> %.3f", plain, weighted)
	}
}

func TestScalerNormalizes(t *testing.T) {
	x := [][]float64{{1, 100}, {3, 300}, {5, 500}}
	s := fitScaler(x)
	transformed := s.transformAll(x)
	for col := 0; col < 2; col++ {
		var sum float64
		for _, row := range transformed {
			sum += row[col]
		}
		if math.Abs(sum) > 1e-9 {
			t.Errorf("column %d mean %v, want 0", col, sum/3)
		}
	}
	// Constant features pass through centred without dividing by zero.
	c := fitScaler([][]float64{{7}, {7}})
	out := c.transform([]float64{7})
	if out[0] != 0 {
		t.Errorf("constant feature transform = %v", out)
	}
}

func TestNamedClassifiers(t *testing.T) {
	names := map[string]Named{
		"random-forest":          NewForest(ForestConfig{}),
		"svm":                    NewSVM(SVMConfig{}),
		"logistic":               NewLogistic(LogisticConfig{}),
		"naive-bayes":            NewNaiveBayes(),
		"knn":                    NewKNN(KNNConfig{}),
		"mlp":                    NewMLP(MLPConfig{}),
		"decision-tree(entropy)": NewTree(TreeConfig{Criterion: Entropy}),
	}
	for want, n := range names {
		if got := n.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

func TestFitRejectsInvalidDataset(t *testing.T) {
	bad := Dataset{X: [][]float64{{1}}, Y: []int{5}}
	for name, factory := range classifiersUnderTest() {
		t.Run(name, func(t *testing.T) {
			if err := factory().Fit(bad); !errors.Is(err, ErrBadLabel) {
				t.Errorf("want ErrBadLabel, got %v", err)
			}
		})
	}
}
