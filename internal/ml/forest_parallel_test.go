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
// ForestConfig.Parallelism: bootstrap samples and per-tree seeds are drawn
// before any tree fits and each tree lands in its own slot, so concurrent
// fitting produces a bit-identical forest.
func TestForestParallelFitIdentical(t *testing.T) {
	d := xorDataset(300, 7)
	cfg := ForestConfig{Trees: 40, Seed: 9, PositiveWeight: 3}
	serial := fitForest(t, ForestConfig{Trees: cfg.Trees, Seed: cfg.Seed, PositiveWeight: cfg.PositiveWeight, Parallelism: 1}, d)
	parallel := fitForest(t, ForestConfig{Trees: cfg.Trees, Seed: cfg.Seed, PositiveWeight: cfg.PositiveWeight, Parallelism: 4}, d)
	for i, row := range d.X {
		ss, err := serial.Score(row)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := parallel.Score(row)
		if err != nil {
			t.Fatal(err)
		}
		if ss != ps {
			t.Fatalf("example %d: serial score %v != parallel score %v", i, ss, ps)
		}
	}
}
