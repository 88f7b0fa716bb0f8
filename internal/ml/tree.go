package ml

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// SplitCriterion selects the impurity measure used to grow trees.
type SplitCriterion int

const (
	// Gini impurity (CART default).
	Gini SplitCriterion = iota + 1
	// Entropy (information gain, as in C4.5/J48 — the paper's "J48 tree").
	Entropy
)

// String implements fmt.Stringer.
func (c SplitCriterion) String() string {
	switch c {
	case Gini:
		return "gini"
	case Entropy:
		return "entropy"
	default:
		return fmt.Sprintf("SplitCriterion(%d)", int(c))
	}
}

// TreeConfig configures decision-tree induction.
type TreeConfig struct {
	// MaxDepth bounds tree depth; 0 means unbounded.
	MaxDepth int
	// MinLeaf is the minimum number of examples per leaf (default 1).
	MinLeaf int
	// Criterion selects the impurity measure (default Gini).
	Criterion SplitCriterion
	// MaxFeatures limits the number of features considered per split;
	// 0 considers all. Random forests set this to √(features).
	MaxFeatures int
	// Seed drives feature subsampling when MaxFeatures > 0.
	Seed int64
}

// withDefaults fills zero fields.
func (c TreeConfig) withDefaults() TreeConfig {
	if c.MinLeaf <= 0 {
		c.MinLeaf = 1
	}
	if c.Criterion == 0 {
		c.Criterion = Gini
	}
	return c
}

// treeNode is one node of a fitted tree. Leaves have feature == -1.
type treeNode struct {
	feature   int
	threshold float64
	left      int // index into nodes
	right     int
	prob      float64 // P(class 1) at this node (used at leaves)
}

// Tree is a CART-style binary decision tree classifier.
type Tree struct {
	cfg      TreeConfig
	nodes    []treeNode
	features int
	rng      *rand.Rand // seeded from cfg.Seed at the first shuffle (candidateFeatures)
}

var (
	_ Classifier = (*Tree)(nil)
	_ Named      = (*Tree)(nil)
)

// NewTree creates an unfitted decision tree.
func NewTree(cfg TreeConfig) *Tree {
	return &Tree{cfg: cfg.withDefaults()}
}

// Name implements Named.
func (t *Tree) Name() string {
	if t.cfg.Criterion == Entropy {
		return "decision-tree(entropy)"
	}
	return "decision-tree(gini)"
}

// Fit grows the tree on d: every row once, each of weight 1.
func (t *Tree) Fit(d Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	w := make([]int, d.Len())
	for i := range w {
		w[i] = 1
	}
	(&grower{d: d}).fitSample(t, presort(d), w)
	return nil
}

// presort returns, per feature, d's row indices in ascending order of that
// feature's value, ties in row order. A dataset without features still gets
// one (unsorted) order, so that a node's rows are always order[0][lo:hi].
func presort(d Dataset) [][]int {
	order := make([][]int, max(d.Features(), 1))
	for f := range order {
		order[f] = make([]int, d.Len())
		for i := range order[f] {
			order[f][i] = i
		}
		if f < d.Features() {
			slices.SortStableFunc(order[f], func(a, b int) int { return cmp.Compare(d.X[a][f], d.X[b][f]) })
		}
	}
	return order
}

// grower is the state of one fit. order[f] lists the rows being fitted, each
// once, in ascending order of feature f, and row j stands for w[j] examples
// (its bootstrap count in a forest, 1 in Tree.Fit). A node owns the same
// range [lo, hi) of every order, which grow partitions stably into its
// children's ranges, so no node sorts. Every count a node tests or scores is
// a sum of weights: the same integers a fit over a copy repeating row j w[j]
// times would count, so the tree is the same bits. A forest reuses one.
type grower struct {
	*Tree
	d       Dataset
	order   [][]int
	w       []int
	scratch []int   // the right-hand rows of one partition
	feats   []int   // candidateFeatures' buffer
	values  []tally // compress's distinct values
	runs    []tally // a one-feature sample's class runs (growRuns)
}

// tally is a weight n with pos positives at x: one distinct value x of a
// one-feature sample, or the start of a class run, where n and pos sum the
// runs before it and x is the cut between it and the run before it.
type tally struct {
	x      float64
	n, pos int
}

// fitSample grows t over the sample of d that draws row j count[j] times,
// order being presort(d): over the sample's class runs on one feature, or
// else over the rows drawn.
func (g *grower) fitSample(t *Tree, order [][]int, count []int) {
	g.Tree = t
	t.features = g.d.Features()
	t.nodes = t.nodes[:0]
	if t.features == 1 && g.compress(order[0], count) {
		g.growRuns(0, len(g.runs)-1, 0)
		return
	}
	g.sampleOrder(order, count)
	g.feats = slices.Grow(g.feats[:0], t.features)[:t.features]
	g.grow(0, len(g.order[0]), 0)
}

// compress sums the sample's distinct values, read in the sorted order o,
// into g.runs: maximal stretches of values of one class, a mixed value
// alone. Under a strictly concave impurity (Gini, entropy) no cut inside a
// run beats both its ends (Fayyad and Irani 1992), so grow's argmin is a run
// boundary. It reports false if a boundary's midpoint is not in [left,
// right), as with adjacent floats, an infinity or an overflowing sum, where
// grow's partition would differ.
func (g *grower) compress(o, count []int) bool {
	g.values = g.values[:0]
	for _, j := range o {
		if count[j] == 0 {
			continue
		}
		if x := g.d.X[j][0]; len(g.values) == 0 || g.values[len(g.values)-1].x != x {
			g.values = append(g.values, tally{x: x})
		}
		last := &g.values[len(g.values)-1]
		last.n += count[j]
		last.pos += count[j] * g.d.Y[j]
	}
	g.runs = append(g.runs[:0], tally{})
	n, pos, prev := 0, 0, tally{}
	for i, v := range g.values {
		if i > 0 && !(prev.pos == 0 && v.pos == 0 || prev.pos == prev.n && v.pos == v.n) {
			cut := (prev.x + v.x) / 2
			if !(prev.x <= cut && cut < v.x) {
				return false
			}
			g.runs = append(g.runs, tally{x: cut, n: n, pos: pos})
		}
		n, pos, prev = n+v.n, pos+v.pos, v
	}
	g.runs = append(g.runs, tally{n: n, pos: pos})
	return true
}

// growRuns is grow over runs [lo, hi) of g.runs: the same nodes, in the same
// order, with the run boundaries the only candidate cuts.
func (g *grower) growRuns(lo, hi, depth int) int {
	n, pos := g.runs[hi].n-g.runs[lo].n, g.runs[hi].pos-g.runs[lo].pos
	nodeIdx, ok := g.open(n, pos, depth)
	if !ok {
		return nodeIdx
	}
	bestScore, mid := math.Inf(1), lo
	for b := lo + 1; b < hi; b++ {
		leftN, leftPos := g.runs[b].n-g.runs[lo].n, g.runs[b].pos-g.runs[lo].pos
		if score := weightedImpurity(g.cfg.Criterion, leftPos, leftN, pos-leftPos, n-leftN); score < bestScore {
			bestScore, mid = score, b
		}
	}
	if leftN := g.runs[mid].n - g.runs[lo].n; mid == lo || leftN < g.cfg.MinLeaf || n-leftN < g.cfg.MinLeaf {
		return nodeIdx
	}
	left, right := g.growRuns(lo, mid, depth+1), g.growRuns(mid, hi, depth+1)
	g.nodes[nodeIdx] = treeNode{feature: 0, threshold: g.runs[mid].x, left: left, right: right, prob: g.nodes[nodeIdx].prob}
	return nodeIdx
}

// leafNode is the leaf over a weight of n with pos positives. Laplace
// smoothing, (pos+1)/(n+2), tempers small pure leaves, which improves the
// ranking quality (AUC) of bagged trees.
func leafNode(n, pos int) treeNode {
	return treeNode{feature: -1, prob: float64(pos+1) / float64(n+2)}
}

// open appends the leaf over a weight of n with pos positives at depth, and
// reports its index and whether the node may split.
func (g *grower) open(n, pos, depth int) (int, bool) {
	g.nodes = append(g.nodes, leafNode(n, pos))
	return len(g.nodes) - 1, !(pos == 0 || pos == n || g.cfg.MaxDepth > 0 && depth >= g.cfg.MaxDepth || n < 2*g.cfg.MinLeaf)
}

// sampleOrder points g at a bootstrap sample of d: it keeps the rows count
// draws, each once, in the presorted order of every feature, and weighs row
// j by count[j]. g's order buffers are reused, each sized once to hold every
// row.
func (g *grower) sampleOrder(order [][]int, count []int) {
	if len(g.order) != len(order) {
		g.order = make([][]int, len(order))
	}
	for f, o := range order {
		out := slices.Grow(g.order[f][:0], len(o))
		for _, j := range o {
			if count[j] > 0 {
				out = append(out, j)
			}
		}
		g.order[f] = out
	}
	g.w = count
}

// grow builds the subtree over rows [lo, hi) and returns its node index.
func (g *grower) grow(lo, hi, depth int) int {
	n, pos := 0, 0
	for _, i := range g.order[0][lo:hi] {
		n += g.w[i]
		pos += g.w[i] * g.d.Y[i]
	}
	nodeIdx, ok := g.open(n, pos, depth)
	if !ok {
		return nodeIdx
	}
	feature, threshold, ok := g.bestSplit(lo, hi, n, pos)
	if !ok {
		return nodeIdx
	}
	// The split feature's order is ascending, so its left child is a prefix.
	mid, leftN := lo, 0
	for mid < hi && g.d.X[g.order[feature][mid]][feature] <= threshold {
		leftN += g.w[g.order[feature][mid]]
		mid++
	}
	if leftN < g.cfg.MinLeaf || n-leftN < g.cfg.MinLeaf {
		return nodeIdx
	}
	for f, o := range g.order {
		if f != feature {
			g.partition(o[lo:hi], feature, threshold)
		}
	}
	left, right := g.grow(lo, mid, depth+1), g.grow(mid, hi, depth+1)
	g.nodes[nodeIdx] = treeNode{feature: feature, threshold: threshold, left: left, right: right, prob: g.nodes[nodeIdx].prob}
	return nodeIdx
}

// partition stably moves the rows of o that go left at the split to its
// front, so that both halves stay in o's order.
func (g *grower) partition(o []int, feature int, threshold float64) {
	right, l := g.scratch[:0], 0
	for _, i := range o {
		if g.d.X[i][feature] <= threshold {
			o[l] = i
			l++
		} else {
			right = append(right, i)
		}
	}
	copy(o[l:], right)
	g.scratch = right
}

// candidateFeatures returns the features examined at one split. The tree's
// generator is built the first time it shuffles, so a tree that examines
// every feature never seeds one, and repeated Fits continue one stream.
func (g *grower) candidateFeatures() []int {
	for i := range g.feats {
		g.feats[i] = i
	}
	if g.cfg.MaxFeatures <= 0 || g.cfg.MaxFeatures >= g.features {
		return g.feats
	}
	if g.rng == nil {
		g.rng = rand.New(rand.NewSource(g.cfg.Seed))
	}
	g.rng.Shuffle(len(g.feats), func(i, j int) { g.feats[i], g.feats[j] = g.feats[j], g.feats[i] })
	return g.feats[:g.cfg.MaxFeatures]
}

// bestSplit finds the impurity-minimizing (feature, threshold) pair over rows
// [lo, hi), of weight n with totalPos positives, by one scan of each
// candidate feature's order. Candidate thresholds lie only between distinct
// values, so the weighted class counts at each of them do not depend on how
// ties are ordered.
func (g *grower) bestSplit(lo, hi, n, totalPos int) (feature int, threshold float64, ok bool) {
	bestScore := math.Inf(1)
	for _, f := range g.candidateFeatures() {
		o := g.order[f][lo:hi]
		leftN, leftPos, v := 0, 0, g.d.X[o[0]][f]
		for k := 1; k < len(o); k++ {
			leftN += g.w[o[k-1]]
			leftPos += g.w[o[k-1]] * g.d.Y[o[k-1]]
			next := g.d.X[o[k]][f]
			if v != next { // cannot split between equal values
				score := weightedImpurity(g.cfg.Criterion, leftPos, leftN, totalPos-leftPos, n-leftN)
				if score < bestScore {
					bestScore, feature, threshold, ok = score, f, (v+next)/2, true
				}
			}
			v = next
		}
	}
	return feature, threshold, ok
}

// weightedImpurity computes the size-weighted impurity of a candidate split.
func weightedImpurity(criterion SplitCriterion, leftPos, leftN, rightPos, rightN int) float64 {
	total := float64(leftN + rightN)
	return float64(leftN)/total*impurity(criterion, leftPos, leftN) +
		float64(rightN)/total*impurity(criterion, rightPos, rightN)
}

// impurity computes Gini or entropy of a node with pos positives out of n.
func impurity(criterion SplitCriterion, pos, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	switch criterion {
	case Entropy:
		return binaryEntropy(p)
	default:
		return 2 * p * (1 - p)
	}
}

// binaryEntropy returns H(p) in bits.
func binaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// Score implements Classifier: the positive-class fraction at the leaf x
// falls into.
func (t *Tree) Score(x []float64) (float64, error) {
	if len(t.nodes) == 0 {
		return 0, ErrNotFitted
	}
	if len(x) != t.features {
		return 0, fmt.Errorf("%w: got %d features, want %d", ErrDimensionMismatch, len(x), t.features)
	}
	node := t.nodes[0]
	for node.feature >= 0 {
		if x[node.feature] <= node.threshold {
			node = t.nodes[node.left]
		} else {
			node = t.nodes[node.right]
		}
	}
	return node.prob, nil
}
