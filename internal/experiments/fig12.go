package experiments

import (
	"fmt"
	"io"
)

// ExecutionSeries is one Figure 12(a/c) curve: the per-wave cumulative
// executions of the live run normalized by the synchronous model.
type ExecutionSeries struct {
	Workload   Workload
	Bound      float64
	Normalized []float64
}

// ExecutionTotals is one Figure 12(b/d) bar group: total executions of the
// predicted (SmartFlux), optimal (oracle) and synchronous schedules.
type ExecutionTotals struct {
	Workload  Workload
	Bound     float64
	Predicted int
	Optimal   int
	Sync      int
	// SavingsRatio is 1 - Predicted/Sync.
	SavingsRatio float64
	// Speedup is the average perceived speedup (sync/predicted), under
	// the paper's observation that skipped executions return in
	// near-zero time.
	Speedup float64
}

// Fig12Result regenerates Figure 12.
type Fig12Result struct {
	Series []ExecutionSeries
	Totals []ExecutionTotals
}

// Fig12 derives execution counts from the cached pipeline runs.
func Fig12(r *Runner) (*Fig12Result, error) {
	result := &Fig12Result{}
	for _, w := range []Workload{LRB, AQHI} {
		for _, bound := range Bounds {
			res, err := r.Pipeline(w, bound, SmartFlux)
			if err != nil {
				return nil, err
			}
			apply := res.Apply
			predicted := apply.TotalLiveExecutions()
			sync := apply.TotalSyncExecutions()
			speedup := 0.0
			if predicted > 0 {
				speedup = float64(sync) / float64(predicted)
			}
			result.Series = append(result.Series, ExecutionSeries{
				Workload:   w,
				Bound:      bound,
				Normalized: apply.NormalizedExecutions(),
			})
			result.Totals = append(result.Totals, ExecutionTotals{
				Workload:     w,
				Bound:        bound,
				Predicted:    predicted,
				Optimal:      apply.TotalOptimalExecutions(),
				Sync:         sync,
				SavingsRatio: apply.SavingsRatio(),
				Speedup:      speedup,
			})
		}
	}
	return result, nil
}

// Render writes the execution totals and the final normalized-execution
// levels.
func (r *Fig12Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 12: executions with QoD vs the synchronous model")
	fmt.Fprintf(w, "%-6s %6s %10s %9s %7s %9s %9s\n",
		"load", "bound", "predicted", "optimal", "sync", "savings", "speedup")
	for _, t := range r.Totals {
		fmt.Fprintf(w, "%-6s %5.0f%% %10d %9d %7d %8.1f%% %8.2fx\n",
			t.Workload, t.Bound*100, t.Predicted, t.Optimal, t.Sync,
			t.SavingsRatio*100, t.Speedup)
	}
	fmt.Fprintln(w, "\nNormalized cumulative executions (final level):")
	for _, s := range r.Series {
		fmt.Fprintf(w, "  %-6s bound %4.0f%% -> %.3f\n",
			s.Workload, s.Bound*100, s.Normalized[len(s.Normalized)-1])
	}
}
