package ml

import (
	"testing"
)

// fitForest fits one forest over d and fails the test on error.
func fitForest(t *testing.T, cfg ForestConfig, d Dataset) *Forest {
	t.Helper()
	f := NewForest(cfg)
	if err := f.Fit(d); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestForestParallelFitIdentical checks the determinism contract of
// ForestConfig.Parallelism: the caller draws every bootstrap sample and seed
// in tree order while the workers fit, and each tree lands in its own slot,
// so every setting grows the same trees, node for node. The three-tree
// forest has fewer trees than the widest setting has workers.
func TestForestParallelFitIdentical(t *testing.T) {
	d := xorDataset(300, 7)
	for _, trees := range []int{40, 3} {
		cfg := ForestConfig{Trees: trees, Seed: 9, PositiveWeight: 3, Parallelism: 1}
		serial := fitForest(t, cfg, d)
		for _, par := range []int{0, 2, 4} {
			cfg.Parallelism = par
			parallel := fitForest(t, cfg, d)
			if len(parallel.trees) != trees {
				t.Fatalf("%d trees at Parallelism %d, want %d", len(parallel.trees), par, trees)
			}
			for i, tree := range parallel.trees {
				if !sameNodes(tree.nodes, serial.trees[i].nodes) {
					t.Fatalf("%d trees, Parallelism %d: tree %d differs from Parallelism 1's", trees, par, i)
				}
			}
		}
	}
}
