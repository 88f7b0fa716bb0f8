package experiments

import (
	"sync"
	"testing"
)

// TestConcurrentPipelineDedup hammers one (workload, bound) key from many
// goroutines and requires every caller to get the same cached result object:
// the runner must execute the pipeline exactly once.
func TestConcurrentPipelineDedup(t *testing.T) {
	runner := NewRunner(Config{Seed: 42, Scale: 0.05, Jobs: 4})
	const callers = 8
	results := make([]interface{}, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = runner.Pipeline(AQHI, 0.10, SmartFlux)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i] != results[0] {
			t.Fatal("concurrent callers must share one pipeline run")
		}
	}
}

// TestPrewarmMatchesColdRun prewarms three targets concurrently — one of them
// a policy that does not learn — and checks the figures derived from them
// equal a cold sequential runner's: the fan-out must not change any result.
func TestPrewarmMatchesColdRun(t *testing.T) {
	warm := NewRunner(Config{Seed: 42, Scale: 0.05, Jobs: 2})
	targets := []Target{{LRB, 0.10, SmartFlux}, {AQHI, 0.10, SmartFlux}, {AQHI, 0.10, "random"}}
	if err := warm.Prewarm(targets); err != nil {
		t.Fatal(err)
	}
	cold := NewRunner(Config{Seed: 42, Scale: 0.05, Jobs: 1})
	for _, target := range targets {
		w, err := warm.Pipeline(target.Workload, target.Bound, target.Policy)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cold.Pipeline(target.Workload, target.Bound, target.Policy)
		if err != nil {
			t.Fatal(err)
		}
		if w.Apply.TotalLiveExecutions() != c.Apply.TotalLiveExecutions() {
			t.Fatalf("%s/%s: prewarmed live executions %d != cold %d",
				target.Workload, target.Policy, w.Apply.TotalLiveExecutions(), c.Apply.TotalLiveExecutions())
		}
		if len(w.Train.RefLabels) != len(c.Train.RefLabels) {
			t.Fatalf("%s: training log lengths differ", target.Workload)
		}
		for i := range w.Train.RefLabels {
			for j := range w.Train.RefLabels[i] {
				if w.Train.RefLabels[i][j] != c.Train.RefLabels[i][j] {
					t.Fatalf("%s: training labels diverged at wave %d", target.Workload, i)
				}
			}
		}
	}
}

// TestPrewarmEmpty checks a no-target prewarm is a no-op.
func TestPrewarmEmpty(t *testing.T) {
	if err := NewRunner(Config{Seed: 42, Scale: 0.05}).Prewarm(nil); err != nil {
		t.Fatal(err)
	}
}
