package ml

import (
	"math"
	"math/rand"
	"testing"
)

// growGeneric grows a tree over the sample w (a count per row) of d with the
// generic grower, whose search scores a cut between every two distinct
// values: the reference the runs path must reproduce node for node.
func growGeneric(cfg TreeConfig, d Dataset, order [][]int, w []int) []treeNode {
	g := &grower{Tree: NewTree(cfg), d: d, feats: make([]int, d.Features())}
	g.features = d.Features()
	g.sampleOrder(order, w)
	g.grow(0, len(g.order[0]), 0)
	return g.nodes
}

// checkOneFeatureTree fits the sample w (a count per row) of the one-feature
// d both ways: through fitSample and through the generic grower. It returns the tree's
// split count and whether the sample took the runs path (compress accepted
// every cut).
func checkOneFeatureTree(t *testing.T, cfg TreeConfig, d Dataset, w []int) (int, bool) {
	t.Helper()
	order := presort(d)
	tree := NewTree(cfg)
	g := &grower{d: d}
	g.fitSample(tree, order, w)
	if want := growGeneric(cfg, d, order, w); !sameNodes(tree.nodes, want) {
		t.Fatalf("%+v on x %v y %v w %v:\n got %+v\nwant %+v", cfg, d.X, d.Y, w, tree.nodes, want)
	}
	return len(tree.nodes) / 2, g.compress(order[0], w)
}

// oneFeatureDataset draws a one-feature dataset from a few values, so
// values repeat and many of them hold both classes, with now and then an
// infinity, a huge value whose sum with another overflows, or a pair of
// adjacent floats whose midpoint rounds onto the larger one.
func oneFeatureDataset(rng *rand.Rand) Dataset {
	odd := math.Nextafter(1, 2) // (odd + its successor)/2 rounds to the successor
	specials := []float64{math.Inf(1), math.Inf(-1), odd, math.Nextafter(odd, 2), 1,
		1.5e308, 1.7e308, -1.5e308, -1.7e308, math.Copysign(0, -1)}
	n := 1 + rng.Intn(60)
	levels := 1 + rng.Intn(8)
	posRate := rng.Float64()
	if rng.Intn(5) == 0 {
		posRate = float64(rng.Intn(2)) // one class
	}
	d := Dataset{X: make([][]float64, n), Y: make([]int, n)}
	for i := range d.X {
		v := float64(rng.Intn(levels))
		if rng.Intn(8) == 0 {
			v = specials[rng.Intn(len(specials))]
		}
		d.X[i] = []float64{v}
		if rng.Float64() < posRate {
			d.Y[i] = 1
		}
	}
	return d
}

// TestOneFeatureTreeMatchesGrower holds the one-feature grower, which scores
// only the boundaries of the sample's class runs, to the generic grower node
// for node on seeded datasets: bootstrap samples at PositiveWeight 1, 3 and
// 14 and the unit weights of Tree.Fit, under Gini and entropy, MaxDepth 0 and
// 3, MinLeaf 1, 2 and 5. Samples whose cuts a midpoint cannot separate take
// the generic grower through the same call, which the test also checks.
func TestOneFeatureTreeMatchesGrower(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var runs, fallbacks, splits int
	for c := 0; c < 2400; c++ {
		d := oneFeatureDataset(rng)
		cfg := TreeConfig{MaxDepth: []int{0, 3}[rng.Intn(2)], MinLeaf: []int{1, 2, 5}[rng.Intn(3)],
			Criterion: []SplitCriterion{Gini, Entropy}[rng.Intn(2)], MaxFeatures: 1}
		b := newBootstrap(ForestConfig{PositiveWeight: []float64{1, 3, 14}[rng.Intn(3)], Seed: rng.Int63()}, d.Y)
		samples := [][]int{make([]int, d.Len())}
		for i := range samples[0] {
			samples[0][i] = 1
		}
		for range 3 {
			w := make([]int, d.Len())
			b.draw(w)
			samples = append(samples, w)
		}
		for _, w := range samples {
			n, onRuns := checkOneFeatureTree(t, cfg, d, w)
			splits += n
			if onRuns {
				runs++
			} else {
				fallbacks++
			}
		}
	}
	t.Logf("%d samples on runs, %d on the generic grower, %d splits", runs, fallbacks, splits)
	if runs < 5000 || fallbacks < 200 || splits < 10000 {
		t.Fatalf("weak draw: %d samples on runs, %d on the generic grower, %d splits", runs, fallbacks, splits)
	}
}

// FuzzOneFeatureTree checks the same equality on fuzzed samples: each row is
// three bytes (a value selector, a label bit, a count of 0 to 15), and a
// selector of 0x80 or more picks x, a neighbour or negation of x, or a
// special value, so ties, mixed values and adjacent floats are common.
func FuzzOneFeatureTree(f *testing.F) {
	f.Add(uint8(0), 1.0, []byte{0, 0, 1, 1, 1, 2, 2, 0, 3, 1, 1, 1})
	f.Add(uint8(7), 1e308, []byte{0x80, 1, 2, 0x81, 0, 1, 0x82, 1, 3, 0x85, 0, 2})
	f.Add(uint8(12), 1.0000000000000002, []byte{0x80, 0, 1, 0x81, 1, 1, 0x84, 1, 4})
	f.Fuzz(func(t *testing.T, cfgByte uint8, x float64, rows []byte) {
		if math.IsNaN(x) {
			x = 0
		}
		palette := []float64{x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1)), -x,
			math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.MaxFloat64}
		var d Dataset
		var w []int
		for i := 0; i+3 <= len(rows) && d.Len() < 64; i += 3 {
			v := float64(rows[i] % 8)
			if rows[i] >= 0x80 {
				v = palette[int(rows[i])%len(palette)]
			}
			d.X = append(d.X, []float64{v})
			d.Y = append(d.Y, int(rows[i+1]&1))
			w = append(w, int(rows[i+2]%16))
		}
		if d.Len() == 0 {
			return
		}
		cfg := TreeConfig{MaxDepth: int(cfgByte % 4), MinLeaf: 1 + int(cfgByte/4%6), Criterion: Gini}
		if cfgByte >= 128 {
			cfg.Criterion = Entropy
		}
		checkOneFeatureTree(t, cfg, d, w)
	})
}
