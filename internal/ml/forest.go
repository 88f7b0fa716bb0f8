package ml

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
)

// ForestConfig configures a random forest. The zero value gives the
// "default parameterization" the paper relies on (§3.2): 100 trees,
// unbounded depth, √(features) candidate features per split.
type ForestConfig struct {
	// Trees is the number of trees (default 100). This is one of the two
	// knobs §3.2 names for tuning RF behaviour.
	Trees int
	// MaxDepth bounds per-tree depth; 0 means unbounded (the second §3.2
	// knob).
	MaxDepth int
	// MinLeaf is the per-tree minimum leaf size (default 1).
	MinLeaf int
	// Criterion selects the impurity measure (default Gini).
	Criterion SplitCriterion
	// PositiveWeight oversamples class-1 examples in each bootstrap by
	// this factor (default 1 = unweighted). Values above 1 bias the
	// forest toward recall on the positive class, the knob SmartFlux
	// turns when bound compliance matters more than saved executions.
	PositiveWeight float64
	// Seed drives bootstrap sampling and feature subsampling.
	Seed int64
	// Parallelism bounds how many trees fit concurrently: 0 selects
	// runtime.GOMAXPROCS(0), 1 fits sequentially. Every setting produces
	// an identical forest: bootstrap samples and per-tree seeds are drawn
	// sequentially from the root RNG in tree order before any tree fits,
	// and each tree lands in its own slot.
	Parallelism int
}

// workers resolves the effective fitting concurrency.
func (c ForestConfig) workers() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

func (c ForestConfig) withDefaults() ForestConfig {
	if c.Trees <= 0 {
		c.Trees = 100
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 1
	}
	if c.Criterion == 0 {
		c.Criterion = Gini
	}
	if c.PositiveWeight <= 0 {
		c.PositiveWeight = 1
	}
	return c
}

// Forest is a Random Forest classifier (Breiman 2001): bagged decision trees
// with per-split feature subsampling, scored by averaging per-tree
// probabilities. It is SmartFlux's default predictor.
type Forest struct {
	cfg      ForestConfig
	trees    []*Tree
	features int
}

var (
	_ Classifier = (*Forest)(nil)
	_ Named      = (*Forest)(nil)
)

// NewForest creates an unfitted random forest.
func NewForest(cfg ForestConfig) *Forest {
	return &Forest{cfg: cfg.withDefaults()}
}

// Name implements Named.
func (f *Forest) Name() string { return "random-forest" }

// treeTask is the pre-drawn recipe for one tree: its bootstrap sample and
// seed, fixed before any fitting starts so goroutine interleaving cannot
// change what each tree trains on.
type treeTask struct {
	idx  []int
	seed int64
}

// Fit trains the forest on d. Trees fit concurrently when
// ForestConfig.Parallelism allows; the fitted forest is bit-identical for
// every setting (see ForestConfig.Parallelism).
func (f *Forest) Fit(d Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	f.features = d.Features()
	maxFeatures := max(int(math.Sqrt(float64(f.features))), 1)

	// Phase 1 — sequential: draw every tree's recipe. d is sorted once per
	// feature, and each tree lays its sample out from that order.
	tasks := f.drawTasks(d)
	order := presort(d)

	// Phase 2 — parallel: fit trees into indexed slots.
	trees := make([]*Tree, f.cfg.Trees)
	var wg sync.WaitGroup
	sem := make(chan struct{}, f.cfg.workers())
	for i, task := range tasks {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			tree := NewTree(TreeConfig{MaxDepth: f.cfg.MaxDepth, MinLeaf: f.cfg.MinLeaf,
				Criterion: f.cfg.Criterion, MaxFeatures: maxFeatures, Seed: task.seed})
			tree.fit(d, sampleOrder(order, task.idx))
			trees[i] = tree
			<-sem
		}()
	}
	wg.Wait()
	f.trees = trees
	return nil
}

// drawTasks draws every tree's bootstrap sample and seed from the root RNG
// in tree order (the exact historical draw order: per tree, n sample draws
// followed by one seed draw). Positives and negatives are sampled with
// probability proportional to PositiveWeight.
func (f *Forest) drawTasks(d Dataset) []treeTask {
	rng := rand.New(rand.NewSource(f.cfg.Seed))
	var pos, neg []int
	for j, y := range d.Y {
		if y == 1 {
			pos = append(pos, j)
		} else {
			neg = append(neg, j)
		}
	}
	posMass := f.cfg.PositiveWeight * float64(len(pos))
	totalMass := posMass + float64(len(neg))
	tasks := make([]treeTask, f.cfg.Trees)
	for i := range tasks {
		idx := make([]int, d.Len())
		for j := range idx {
			switch {
			case len(pos) == 0:
				idx[j] = neg[rng.Intn(len(neg))]
			case len(neg) == 0:
				idx[j] = pos[rng.Intn(len(pos))]
			case rng.Float64()*totalMass < posMass:
				idx[j] = pos[rng.Intn(len(pos))]
			default:
				idx[j] = neg[rng.Intn(len(neg))]
			}
		}
		tasks[i] = treeTask{idx: idx, seed: rng.Int63()}
	}
	return tasks
}

// sampleOrder lays out the bootstrap sample idx per feature in ascending
// value order, from one walk of each presorted order that repeats row j as
// often as the sample drew it.
func sampleOrder(order [][]int, idx []int) [][]int {
	count := make([]int, len(order[0]))
	for _, j := range idx {
		count[j]++
	}
	out := make([][]int, len(order))
	for f, o := range order {
		out[f] = make([]int, 0, len(idx))
		for _, j := range o {
			for c := count[j]; c > 0; c-- {
				out[f] = append(out[f], j)
			}
		}
	}
	return out
}

// Score implements Classifier: the mean of per-tree leaf probabilities,
// summed in tree order.
func (f *Forest) Score(x []float64) (float64, error) {
	if len(f.trees) == 0 {
		return 0, ErrNotFitted
	}
	if len(x) != f.features {
		return 0, fmt.Errorf("%w: got %d features, want %d", ErrDimensionMismatch, len(x), f.features)
	}
	var sum float64
	for _, tree := range f.trees {
		p, err := tree.Score(x)
		if err != nil {
			return 0, err
		}
		sum += p
	}
	return sum / float64(len(f.trees)), nil
}
