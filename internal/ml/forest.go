package ml

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
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

// Fit trains the forest on d, one tree after another on the calling
// goroutine: a forest is one task of its caller's fan-out (core.fitPlans).
func (f *Forest) Fit(d Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	f.features = d.Features()
	cfg := TreeConfig{MaxDepth: f.cfg.MaxDepth, MinLeaf: f.cfg.MinLeaf, Criterion: f.cfg.Criterion,
		MaxFeatures: max(int(math.Sqrt(float64(f.features))), 1)}
	b := newBootstrap(f.cfg, d.Y)
	if len(b.pos.rows) == 0 || len(b.neg.rows) == 0 {
		// Every sample of one class grows the root leaf alone, and a root
		// leaf never reads its seed, so no tree needs a draw.
		leaf := NewTree(cfg)
		leaf.features, leaf.nodes = f.features, []treeNode{leafNode(d.Len(), len(b.pos.rows))}
		f.trees = slices.Repeat([]*Tree{leaf}, f.cfg.Trees)
		return nil
	}
	// d is sorted once per feature; each tree reads its sample in that order.
	order := presort(d)
	f.trees = make([]*Tree, f.cfg.Trees)
	g := &grower{d: d}
	count := make([]int, d.Len())
	var nodes []treeNode // grown in, then copied out at its length
	for i := range f.trees {
		tree := NewTree(cfg)
		tree.cfg.Seed, tree.nodes = b.draw(count), nodes
		g.fitSample(tree, order, count)
		nodes, tree.nodes = tree.nodes, slices.Clone(tree.nodes)
		f.trees[i] = tree
	}
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
