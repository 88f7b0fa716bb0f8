package experiments

import (
	"fmt"
	"io"

	"smartflux/internal/core"
	"smartflux/internal/ml/eval"
)

// LearningPoint is one point of a Figure 8 learning curve.
type LearningPoint struct {
	TrainingExamples int
	Accuracy         float64
	Precision        float64
	Recall           float64
}

// LearningCurve is accuracy/precision/recall vs training-set size for one
// (workload, bound) pair. Test examples are taken from waves subsequent to
// the largest training prefix, as in the paper (500 for LRB, 384 for AQHI).
type LearningCurve struct {
	Workload Workload
	Bound    float64
	Points   []LearningPoint
}

// Fig8Result regenerates Figure 8: learning curves for both workloads at
// bounds of 5, 10 and 20%.
type Fig8Result struct {
	Curves []LearningCurve
}

// Fig8 trains predictors on growing prefixes of the synchronous log and
// evaluates them on the held-out subsequent block, pooling predictions over
// all gated steps.
func Fig8(r *Runner) (*Fig8Result, error) {
	result := &Fig8Result{}
	for _, w := range []Workload{LRB, AQHI} {
		maxTrain := r.cfg.trainWaves(w)
		sizes := trainingSizes(w, maxTrain)
		for _, bound := range Bounds {
			log, err := r.Log(w, bound)
			if err != nil {
				return nil, err
			}
			if log.Waves() <= maxTrain {
				return nil, fmt.Errorf("fig8: log too short (%d waves, need > %d)", log.Waves(), maxTrain)
			}
			curve := LearningCurve{Workload: w, Bound: bound}
			for _, size := range sizes {
				point, err := evaluatePrefix(r, log, size, maxTrain)
				if err != nil {
					return nil, fmt.Errorf("fig8 %s %.2f size %d: %w", w, bound, size, err)
				}
				curve.Points = append(curve.Points, point)
			}
			result.Curves = append(result.Curves, curve)
		}
	}
	return result, nil
}

// trainingSizes returns the swept training-set sizes (paper: 100..500 LRB,
// roughly 48..336/384 AQHI), scaled to the available log.
func trainingSizes(w Workload, maxTrain int) []int {
	var step int
	if w == LRB {
		step = maxTrain / 5
	} else {
		step = maxTrain / 7
	}
	if step < 10 {
		step = 10
	}
	var sizes []int
	for s := step; s <= maxTrain; s += step {
		sizes = append(sizes, s)
	}
	return sizes
}

// evaluatePrefix trains on log[0:size) and tests on log[maxTrain:].
func evaluatePrefix(r *Runner, log *SyncLog, size, maxTrain int) (LearningPoint, error) {
	train := core.Dataset{X: log.Impacts[:size], Y: log.Labels[:size]}
	factory, err := core.ClassifierFactory(core.ClassifierRandomForest, r.cfg.Seed)
	if err != nil {
		return LearningPoint{}, err
	}
	sess := Session(r.cfg.Seed)
	predictor, err := core.NewPredictor(factory, train, sess.Thresholds)
	if err != nil {
		return LearningPoint{}, err
	}

	var preds, truths []int
	for wave := maxTrain; wave < log.Waves(); wave++ {
		scores, err := predictor.Scores(log.Impacts[wave])
		if err != nil {
			return LearningPoint{}, err
		}
		for step, score := range scores {
			pred := 0
			if score >= sess.Thresholds[0] {
				pred = 1
			}
			preds = append(preds, pred)
			truths = append(truths, clampLabel(log.Labels[wave][step]))
		}
	}
	confusion, err := eval.Confuse(preds, truths)
	if err != nil {
		return LearningPoint{}, err
	}
	return LearningPoint{
		TrainingExamples: size,
		Accuracy:         confusion.Accuracy(),
		Precision:        confusion.Precision(),
		Recall:           confusion.Recall(),
	}, nil
}

func clampLabel(l int) int {
	if l == 1 {
		return 1
	}
	return 0
}

// Render writes the learning curves.
func (r *Fig8Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 8: accuracy/precision/recall vs training examples")
	fmt.Fprintf(w, "%-6s %6s %10s %10s %10s %10s\n",
		"load", "bound", "examples", "accuracy", "precision", "recall")
	for _, c := range r.Curves {
		for _, p := range c.Points {
			fmt.Fprintf(w, "%-6s %5.0f%% %10d %10.3f %10.3f %10.3f\n",
				c.Workload, c.Bound*100, p.TrainingExamples, p.Accuracy, p.Precision, p.Recall)
		}
	}
}
