package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"smartflux/internal/core"
	"smartflux/internal/ml"
	"smartflux/internal/ml/eval"
)

// ROCRow is one classifier's result in the §3.2 selection experiment.
type ROCRow struct {
	Classifier string
	AUCByLoad  map[Workload]float64
	MeanAUC    float64
}

// ROCResult is the §3.2 classifier comparison: ROC areas per algorithm,
// averaged over both workloads' per-step prediction problems. The paper
// reports Random Forest (0.86) and SVM (0.82) as the best performers.
type ROCResult struct {
	Rows  []ROCRow // sorted by MeanAUC descending
	Bound float64
}

// ClassifierSelection reproduces the §3.2 experiment: 10-fold
// cross-validated ROC area of each algorithm on every gated step's
// (ι → execute?) problem, averaged per workload. The cross-validations run
// on Config.Jobs workers; the table does not depend on their number.
func ClassifierSelection(r *Runner, bound float64) (*ROCResult, error) {
	result := &ROCResult{Bound: bound}
	names := core.ClassifierNames()
	aucs := make(map[string]map[Workload][]float64, len(names))
	for _, name := range names {
		aucs[name] = map[Workload][]float64{LRB: nil, AQHI: nil}
	}
	var cvs []func() error // each fills its own slot of aucs
	for _, w := range []Workload{LRB, AQHI} {
		log, err := r.Log(w, bound)
		if err != nil {
			return nil, err
		}
		for step := range log.Steps {
			binary, err := stepDataset(log, step)
			if err != nil {
				return nil, err
			}
			if binary.Positives() == 0 || binary.Positives() == binary.Len() {
				continue // degenerate label; skip like WEKA would
			}
			for _, name := range names {
				slot := len(aucs[name][w])
				aucs[name][w] = append(aucs[name][w], 0)
				cvs = append(cvs, func() error {
					factory, err := core.ClassifierFactory(name, r.cfg.Seed)
					if err != nil {
						return err
					}
					rng := rand.New(rand.NewSource(r.cfg.Seed + int64(step)))
					cv, err := eval.CrossValidate(factory, binary, 10, 0.5, rng)
					if err != nil {
						return fmt.Errorf("roc %s %s step %d: %w", w, name, step, err)
					}
					aucs[name][w][slot] = cv.AUC
					return nil
				})
			}
		}
	}
	if err := fanOut(r.cfg.jobs(), len(cvs), func(i int) error { return cvs[i]() }); err != nil {
		return nil, err
	}

	for _, name := range names {
		row := ROCRow{Classifier: name, AUCByLoad: make(map[Workload]float64, 2)}
		var total float64
		var loads int
		for _, w := range []Workload{LRB, AQHI} {
			vals := aucs[name][w]
			if len(vals) == 0 {
				continue
			}
			var sum float64
			for _, v := range vals {
				sum += v
			}
			mean := sum / float64(len(vals))
			row.AUCByLoad[w] = mean
			total += mean
			loads++
		}
		if loads > 0 {
			row.MeanAUC = total / float64(loads)
		}
		result.Rows = append(result.Rows, row)
	}
	sort.Slice(result.Rows, func(i, j int) bool {
		return result.Rows[i].MeanAUC > result.Rows[j].MeanAUC
	})
	return result, nil
}

// stepDataset extracts one step's binary classification problem from a
// synchronous log. Following §3.1's matrix formulation, the features are the
// full per-wave impact vector (all gated steps' ι values), with the step's
// execute bit as the label — the classifier must find the relevant column,
// which is where ensemble methods separate from the linear models.
func stepDataset(log *SyncLog, step int) (ml.Dataset, error) {
	x := make([][]float64, log.Waves())
	y := make([]int, log.Waves())
	for w := range log.Impacts {
		row := make([]float64, len(log.Impacts[w]))
		copy(row, log.Impacts[w])
		x[w] = row
		if log.Labels[w][step] == 1 {
			y[w] = 1
		}
	}
	return ml.NewDataset(x, y)
}

// Render writes the comparison table.
func (r *ROCResult) Render(w io.Writer) {
	fmt.Fprintf(w, "§3.2 classifier selection (ROC area, bound %.0f%%)\n", r.Bound*100)
	fmt.Fprintf(w, "%-22s %8s %8s %8s\n", "classifier", "LRB", "AQHI", "mean")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-22s %8.3f %8.3f %8.3f\n",
			row.Classifier, row.AUCByLoad[LRB], row.AUCByLoad[AQHI], row.MeanAUC)
	}
}
