package ml

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
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
	// runtime.GOMAXPROCS(0), 1 fits one tree at a time. Fit draws the
	// bootstrap samples and per-tree seeds from the root RNG on its own
	// goroutine, in tree order, while that many workers fit the trees
	// already drawn, each into its own slot. Every setting therefore
	// produces an identical forest.
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

// treeTask is one drawn tree: its slot, its bootstrap sample as a count per
// row, and its seed.
type treeTask struct {
	i     int
	count []int
	seed  int64
}

// Fit trains the forest on d. Trees fit concurrently when
// ForestConfig.Parallelism allows; the fitted forest is bit-identical for
// every setting (see ForestConfig.Parallelism).
func (f *Forest) Fit(d Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	f.features = d.Features()
	cfg := TreeConfig{MaxDepth: f.cfg.MaxDepth, MinLeaf: f.cfg.MinLeaf, Criterion: f.cfg.Criterion,
		MaxFeatures: max(int(math.Sqrt(float64(f.features))), 1)}
	// d is sorted once per feature; each tree keeps the rows it drew from
	// that order.
	order := presort(d)
	trees := make([]*Tree, f.cfg.Trees)
	workers := min(f.cfg.workers(), f.cfg.Trees)

	// The workers fit the drawn trees, each reusing one grower. A count
	// vector goes back to free once its tree is fitted; one more than the
	// workers lets this goroutine draw the next tree while every worker fits.
	tasks, free := make(chan treeTask), make(chan []int, workers+1)
	for range workers + 1 {
		free <- make([]int, d.Len())
	}
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := &grower{d: d}
			var nodes []treeNode // grown in, then copied out at its length
			for task := range tasks {
				tc := cfg
				tc.Seed = task.seed
				tree := NewTree(tc)
				tree.nodes = nodes
				g.sampleOrder(order, task.count)
				g.fit(tree)
				free <- task.count
				nodes, tree.nodes = tree.nodes, slices.Clone(tree.nodes)
				trees[task.i] = tree
			}
		}()
	}
	// The root stream is consumed here alone, in tree order.
	b := newBootstrap(f.cfg, d.Y)
	for i := range trees {
		count := <-free
		tasks <- treeTask{i: i, count: count, seed: b.draw(count)}
	}
	close(tasks)
	wg.Wait()
	f.trees = trees
	return nil
}

// bootstrap draws a forest's bootstrap samples and tree seeds from the root
// RNG: per tree, n sample draws followed by one seed draw, where a sample
// draw picks the positive class with probability proportional to
// PositiveWeight and then a uniform member of that class. It makes exactly
// the draws rand.Rand's Float64 and Intn made, in the same order, but
// straight on the Source.
type bootstrap struct {
	src                rand.Source
	pos, neg           classDraw
	posMass, totalMass float64
}

func newBootstrap(cfg ForestConfig, y []int) *bootstrap {
	var pos, neg []int
	for j, label := range y {
		if label == 1 {
			pos = append(pos, j)
		} else {
			neg = append(neg, j)
		}
	}
	posMass := cfg.PositiveWeight * float64(len(pos))
	return &bootstrap{src: rand.NewSource(cfg.Seed), pos: newClassDraw(pos), neg: newClassDraw(neg),
		posMass: posMass, totalMass: posMass + float64(len(neg))}
}

// draw fills count with how often the next tree's sample draws each row (it
// draws len(count) rows) and returns the tree's seed.
func (b *bootstrap) draw(count []int) int64 {
	clear(count)
	for range count {
		switch {
		case len(b.pos.rows) == 0:
			count[b.neg.draw(b.src)]++
		case len(b.neg.rows) == 0:
			count[b.pos.draw(b.src)]++
		case b.uniform()*b.totalMass < b.posMass:
			count[b.pos.draw(b.src)]++
		default:
			count[b.neg.draw(b.src)]++
		}
	}
	return b.src.Int63()
}

// uniform is rand.Rand.Float64 on b's Source.
func (b *bootstrap) uniform() float64 {
	for {
		if f := float64(b.src.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// classDraw draws a uniform member of one class's rows as rand.Rand.Intn
// does for a class of fewer than 2³¹ rows (Int31n): it rejects the Int31
// values above bound, then takes the remainder modulo the class size as the
// high word of (recip·v mod 2⁶⁴)·size (Lemire's direct remainder, exact for
// 32-bit operands). A power-of-two size rejects nothing, and the remainder
// is the mask Int31n applies.
type classDraw struct {
	rows  []int
	bound uint32 // 2³¹-1 - 2³¹ mod len(rows)
	recip uint64 // ⌈2⁶⁴ / len(rows)⌉, wrapping to 0 for a class of one
}

func newClassDraw(rows []int) classDraw {
	if len(rows) == 0 {
		return classDraw{}
	}
	m := uint32(len(rows))
	return classDraw{rows: rows, bound: 1<<31 - 1 - (1<<31)%m, recip: ^uint64(0)/uint64(m) + 1}
}

func (c *classDraw) draw(src rand.Source) int {
	v := uint32(src.Int63() >> 32)
	for v > c.bound {
		v = uint32(src.Int63() >> 32)
	}
	j, _ := bits.Mul64(c.recip*uint64(v), uint64(len(c.rows)))
	return c.rows[j]
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
