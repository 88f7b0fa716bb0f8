package ml

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refTree is the sort-per-node tree induction this package used before the
// split search ran over presorted orders, kept verbatim (its generator built
// eagerly, a fresh pairs sort at every node) as the reference the presorted
// search must reproduce bit for bit.
type refTree struct {
	cfg      TreeConfig
	nodes    []treeNode
	features int
	rng      *rand.Rand
}

func newRefTree(cfg TreeConfig) *refTree {
	cfg = cfg.withDefaults()
	return &refTree{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

func (t *refTree) Fit(d Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	t.features = d.Features()
	t.nodes = t.nodes[:0]
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	t.grow(d, idx, 0)
	return nil
}

func (t *refTree) grow(d Dataset, idx []int, depth int) int {
	prob := positiveFraction(d, idx)
	var pos float64
	for _, i := range idx {
		pos += float64(d.Y[i])
	}
	smoothed := (pos + 1) / (float64(len(idx)) + 2)
	nodeIdx := len(t.nodes)
	t.nodes = append(t.nodes, treeNode{feature: -1, prob: smoothed})

	if prob == 0 || prob == 1 {
		return nodeIdx
	}
	if t.cfg.MaxDepth > 0 && depth >= t.cfg.MaxDepth {
		return nodeIdx
	}
	if len(idx) < 2*t.cfg.MinLeaf {
		return nodeIdx
	}

	feature, threshold, ok := t.bestSplit(d, idx)
	if !ok {
		return nodeIdx
	}

	var left, right []int
	for _, i := range idx {
		if d.X[i][feature] <= threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < t.cfg.MinLeaf || len(right) < t.cfg.MinLeaf {
		return nodeIdx
	}

	leftIdx := t.grow(d, left, depth+1)
	rightIdx := t.grow(d, right, depth+1)
	t.nodes[nodeIdx].feature = feature
	t.nodes[nodeIdx].threshold = threshold
	t.nodes[nodeIdx].left = leftIdx
	t.nodes[nodeIdx].right = rightIdx
	return nodeIdx
}

func (t *refTree) candidateFeatures() []int {
	all := make([]int, t.features)
	for i := range all {
		all[i] = i
	}
	if t.cfg.MaxFeatures <= 0 || t.cfg.MaxFeatures >= t.features {
		return all
	}
	t.rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:t.cfg.MaxFeatures]
}

func (t *refTree) bestSplit(d Dataset, idx []int) (feature int, threshold float64, ok bool) {
	bestScore := math.Inf(1)
	type valueLabel struct {
		v float64
		y int
	}
	pairs := make([]valueLabel, 0, len(idx))

	for _, f := range t.candidateFeatures() {
		pairs = pairs[:0]
		for _, i := range idx {
			pairs = append(pairs, valueLabel{v: d.X[i][f], y: d.Y[i]})
		}
		sort.Slice(pairs, func(a, b int) bool { return pairs[a].v < pairs[b].v })

		totalPos := 0
		for _, p := range pairs {
			totalPos += p.y
		}
		n := len(pairs)
		leftPos, leftN := 0, 0
		for i := 0; i < n-1; i++ {
			leftPos += pairs[i].y
			leftN++
			if pairs[i].v == pairs[i+1].v {
				continue // cannot split between equal values
			}
			rightPos := totalPos - leftPos
			rightN := n - leftN
			score := weightedImpurity(t.cfg.Criterion, leftPos, leftN, rightPos, rightN)
			if score < bestScore {
				bestScore = score
				feature = f
				threshold = (pairs[i].v + pairs[i+1].v) / 2
				ok = true
			}
		}
	}
	return feature, threshold, ok
}

func positiveFraction(d Dataset, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	var pos int
	for _, i := range idx {
		pos += d.Y[i]
	}
	return float64(pos) / float64(len(idx))
}

// stressDataset draws a dataset shaped to break a careless split search:
// few distinct values (heavy ties), duplicated rows, one constant feature,
// ±Inf and both signed zeros, and now and then a single class.
func stressDataset(rng *rand.Rand, features int) Dataset {
	n := 1 + rng.Intn(60)
	constant := rng.Intn(features + 1) // == features: no constant feature
	levels := 1 + rng.Intn(6)
	posRate := rng.Float64()
	if rng.Intn(6) == 0 {
		posRate = float64(rng.Intn(2)) // single class
	}
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		if rng.Float64() < posRate {
			y[i] = 1
		}
		if i > 0 && rng.Intn(5) == 0 {
			x[i] = x[rng.Intn(i)] // a duplicate row, its label drawn afresh
			continue
		}
		row := make([]float64, features)
		for f := range row {
			if f == constant {
				row[f] = 3
				continue
			}
			switch rng.Intn(20) {
			case 0:
				row[f] = math.Inf(1)
			case 1:
				row[f] = math.Inf(-1)
			case 2:
				row[f] = math.Copysign(0, -1)
			case 3:
				row[f] = 0
			case 4, 5, 6, 7:
				row[f] = rng.NormFloat64()
			default:
				row[f] = float64(rng.Intn(levels))
			}
		}
		x[i] = row
	}
	return Dataset{X: x, Y: y}
}

// stressConfig draws a tree configuration: either criterion, a range of
// MinLeaf and MaxDepth values, and MaxFeatures either 0 or below the
// feature count (the shuffle path).
func stressConfig(rng *rand.Rand, features int) TreeConfig {
	cfg := TreeConfig{
		MaxDepth:  rng.Intn(7),
		MinLeaf:   rng.Intn(5),
		Criterion: Gini,
		Seed:      rng.Int63(),
	}
	if rng.Intn(2) == 0 {
		cfg.Criterion = Entropy
	}
	if features > 1 && rng.Intn(2) == 0 {
		cfg.MaxFeatures = 1 + rng.Intn(features-1)
	}
	return cfg
}

// sameNodes reports whether two fitted node slices are identical, float bits
// included.
func sameNodes(a, b []treeNode) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].feature != b[i].feature || a[i].left != b[i].left || a[i].right != b[i].right ||
			math.Float64bits(a[i].threshold) != math.Float64bits(b[i].threshold) ||
			math.Float64bits(a[i].prob) != math.Float64bits(b[i].prob) {
			return false
		}
	}
	return true
}

// TestTreeMatchesSortPerNodeReference holds the presorted split search to the
// sort-per-node one over seeded random datasets: the same nodes, thresholds
// and leaf probabilities, bit for bit. Each tree fits twice (on two datasets
// of one width), so on the shuffle path the second fit must continue the
// generator's stream exactly as the reference does.
func TestTreeMatchesSortPerNodeReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var shuffled, splits int
	for c := 0; c < 400; c++ {
		features := 1 + rng.Intn(4)
		cfg := stressConfig(rng, features)
		tree, ref := NewTree(cfg), newRefTree(cfg)
		for fit := 0; fit < 2; fit++ {
			d := stressDataset(rng, features)
			if err := tree.Fit(d); err != nil {
				t.Fatal(err)
			}
			if err := ref.Fit(d); err != nil {
				t.Fatal(err)
			}
			if tree.features != ref.features || !sameNodes(tree.nodes, ref.nodes) {
				t.Fatalf("case %d fit %d (%+v, %d rows × %d features):\n got %+v\nwant %+v",
					c, fit, cfg, d.Len(), features, tree.nodes, ref.nodes)
			}
			splits += len(tree.nodes) / 2
		}
		if cfg.MaxFeatures > 0 {
			shuffled++
		}
	}
	// The draw must reach both paths and grow real trees, or it pins nothing.
	if shuffled < 100 || splits < 1000 {
		t.Fatalf("weak draw: %d shuffle-path cases, %d splits", shuffled, splits)
	}
}

// treeTask is one drawn tree: its slot, its bootstrap sample as a count per
// row, and its seed.
type treeTask struct {
	i     int
	count []int
	seed  int64
}

// drawTasks collects a forest's bootstrap draws in tree order, as Fit makes
// them.
func drawTasks(cfg ForestConfig, d Dataset) []treeTask {
	b := newBootstrap(cfg, d.Y)
	tasks := make([]treeTask, cfg.Trees)
	for i := range tasks {
		count := make([]int, d.Len())
		tasks[i] = treeTask{i: i, count: count, seed: b.draw(count)}
	}
	return tasks
}

// TestForestMatchesPerTreeSubsetFits holds Forest.Fit — one presort per
// feature, each tree fitted over the rows its sample drew, weighted by their
// counts — to fitting every tree the old way: the sort-per-node reference on
// d.Subset of its bootstrap, each row repeated as often as it was drawn.
func TestForestMatchesPerTreeSubsetFits(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var weak, splits int
	for c := 0; c < 400; c++ {
		features := 1 + rng.Intn(4)
		d := stressDataset(rng, features)
		tc := stressConfig(rng, features)
		cfg := ForestConfig{
			Trees:          1 + rng.Intn(12),
			MaxDepth:       tc.MaxDepth,
			MinLeaf:        tc.MinLeaf,
			Criterion:      tc.Criterion,
			PositiveWeight: []float64{0, 3, 14}[rng.Intn(3)],
			Seed:           tc.Seed,
		}
		f := NewForest(cfg)
		if err := f.Fit(d); err != nil {
			t.Fatal(err)
		}
		for i, task := range drawTasks(f.cfg, d) {
			var idx []int
			for j, k := range task.count {
				for ; k > 0; k-- {
					idx = append(idx, j)
				}
			}
			if len(idx) != d.Len() {
				t.Fatalf("case %d tree %d: counts sum to %d, want %d", c, i, len(idx), d.Len())
			}
			ref := newRefTree(TreeConfig{
				MaxDepth:    cfg.MaxDepth,
				MinLeaf:     cfg.MinLeaf,
				Criterion:   cfg.Criterion,
				MaxFeatures: max(int(math.Sqrt(float64(features))), 1),
				Seed:        task.seed,
			})
			if err := ref.Fit(d.Subset(idx)); err != nil {
				t.Fatal(err)
			}
			if !sameNodes(f.trees[i].nodes, ref.nodes) {
				t.Fatalf("case %d tree %d (%+v): got %+v, want %+v", c, i, cfg, f.trees[i].nodes, ref.nodes)
			}
			splits += len(ref.nodes) / 2
		}
		if cfg.MinLeaf >= 2 && cfg.PositiveWeight == 14 {
			weak++
		}
	}
	// Weighted leaf-size checks only bite where MinLeaf exceeds 1 and the
	// sample repeats rows, which PositiveWeight 14 does most.
	if weak < 50 || splits < 2000 {
		t.Fatalf("weak draw: %d cases with MinLeaf ≥ 2 and PositiveWeight 14, %d splits", weak, splits)
	}
}

// refDrawTask is one tree's recipe as the reference draw makes it.
type refDrawTask struct {
	idx  []int
	seed int64
}

// refDrawTasks is the draw Forest.Fit made through rand.Rand before a
// bootstrap became a count vector, kept verbatim but for its source, which
// is passed in so the test can count the values it consumes.
func refDrawTasks(f *Forest, d Dataset, src rand.Source) []refDrawTask {
	rng := rand.New(src)
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
	tasks := make([]refDrawTask, f.cfg.Trees)
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
		tasks[i] = refDrawTask{idx: idx, seed: rng.Int63()}
	}
	return tasks
}

// countingSource counts the values drawn from a Source.
type countingSource struct {
	rand.Source
	n int
}

func (s *countingSource) Int63() int64 { s.n++; return s.Source.Int63() }

// TestForestDrawMatchesRandReference pins the bootstrap draw, computed
// straight on the Source with a precomputed rejection bound and remainder,
// to rand.Rand's Float64 and Intn: every count vector and every tree seed.
// Besides random cases it runs seeds found to hit Int31n's rejection loop,
// which a class of at most 200 rows reaches about once in 10⁷ draws.
func TestForestDrawMatchesRandReference(t *testing.T) {
	type drawCase struct {
		pos, neg int
		weight   float64
		trees    int
		seed     int64
	}
	cases := []drawCase{{0, 191, 1, 12, 872}, {9, 191, 1, 12, 9287}, {191, 9, 3, 12, 9287}, {178, 0, 1, 12, 872}}
	rng := rand.New(rand.NewSource(3))
	for len(cases) < 600 {
		n := 1 + rng.Intn(200)
		var pos int
		switch rng.Intn(4) {
		case 0: // all negative
		case 1:
			pos = n
		case 2: // a power-of-two class
			pos = min(1<<rng.Intn(8), n)
		default:
			pos = rng.Intn(n + 1)
		}
		cases = append(cases, drawCase{pos, n - pos, []float64{0, 1, 3, 14}[rng.Intn(4)], 1 + rng.Intn(12), rng.Int63()})
	}
	var rejected, mixed, powers, others int
	for c, dc := range cases {
		n := dc.pos + dc.neg
		d := Dataset{X: make([][]float64, n), Y: make([]int, n)}
		for _, j := range rng.Perm(n)[:dc.pos] {
			d.Y[j] = 1
		}
		f := NewForest(ForestConfig{Trees: dc.trees, PositiveWeight: dc.weight, Seed: dc.seed})
		src := &countingSource{Source: rand.NewSource(dc.seed)}
		want := refDrawTasks(f, d, src)
		got := drawTasks(f.cfg, d)
		for i := range want {
			count := make([]int, n)
			for _, j := range want[i].idx {
				count[j]++
			}
			if got[i].seed != want[i].seed || !slices.Equal(got[i].count, count) {
				t.Fatalf("case %d %+v tree %d: got seed %d counts %v, want seed %d counts %v",
					c, dc, i, got[i].seed, got[i].count, want[i].seed, count)
			}
		}
		// Without a rejection the reference draws n samples and a seed per
		// tree, plus a class pick per sample when both classes are present.
		draws := dc.trees * (n + 1)
		if dc.pos > 0 && dc.neg > 0 {
			draws += dc.trees * n
			mixed++
		}
		if src.n > draws {
			rejected++
		}
		for _, size := range []int{dc.pos, dc.neg} {
			switch {
			case size == 0:
			case size&(size-1) == 0:
				powers++
			default:
				others++
			}
		}
	}
	if rejected == 0 || mixed < 100 || powers < 100 || others < 100 {
		t.Fatalf("weak draw: %d cases rejected a value, %d mixed, class sizes %d powers of two and %d not",
			rejected, mixed, powers, others)
	}
}

// TestTreeSeedsNoUnusedGenerator guards the lazy generator. Over two
// identical columns every feature choice grows the same tree, so the only
// allocations the shuffle path adds are its generator's two (the Rand and
// its source, 4.9 KB); a tree that examines every feature builds none.
func TestTreeSeedsNoUnusedGenerator(t *testing.T) {
	one := separable(64, 4)
	two := Dataset{X: make([][]float64, one.Len()), Y: one.Y}
	for i, row := range one.X {
		two.X[i] = []float64{row[0], row[0]}
	}
	fits := func(cfg TreeConfig, d Dataset) (*Tree, float64) {
		var tree *Tree
		allocs := testing.AllocsPerRun(20, func() {
			tree = NewTree(cfg)
			if err := tree.Fit(d); err != nil {
				t.Fatal(err)
			}
		})
		return tree, allocs
	}
	tree, all := fits(TreeConfig{Seed: 1}, two)
	if tree.rng != nil {
		t.Fatal("a tree that examines every feature built a generator")
	}
	if _, shuffle := fits(TreeConfig{Seed: 1, MaxFeatures: 1}, two); shuffle-all != 2 {
		t.Fatalf("shuffle path allocates %v, all-features path %v: want exactly the generator's 2 more", shuffle, all)
	}
	// A forest's tree over one feature (MaxFeatures 1 of 1) never shuffles.
	if tree, _ := fits(TreeConfig{Seed: 1, MaxFeatures: 1}, one); tree.rng != nil || len(tree.nodes) < 3 {
		t.Fatalf("one-feature fit: rng %v, %d nodes", tree.rng, len(tree.nodes))
	}
}
