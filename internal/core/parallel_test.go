package core

import (
	"fmt"
	"reflect"
	"testing"

	"smartflux/internal/ml"
)

// trainSession observes a synthetic log and trains at a parallelism setting.
func trainSession(t *testing.T, par int) (*Session, TestReport) {
	t.Helper()
	sess := NewSession(Config{Seed: 5, Parallelism: par})
	log := syntheticLog(200, 3, 13)
	for i := range log.X {
		sess.ObserveTrainingWave(log.X[i], log.Y[i])
	}
	report, err := sess.Train()
	if err != nil {
		t.Fatal(err)
	}
	return sess, report
}

// TestSessionTrainParallelIdentical trains the same knowledge base
// sequentially and with concurrent per-label fitting plus concurrent
// cross-validation folds, and requires a bit-identical test report and
// identical decisions: fold splits are drawn sequentially per label before
// any scoring, fold scores pool in fold order, and per-label models carry
// their own deterministic seeds.
func TestSessionTrainParallelIdentical(t *testing.T) {
	serialSess, serial := trainSession(t, 1)
	parallelSess, parallel := trainSession(t, 4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("test reports diverged:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	// The learned decision boundary must agree everywhere we probe it.
	probes := syntheticLog(50, 3, 29)
	for w, x := range probes.X {
		for idx := range x {
			if serialSess.Decide(w, idx, x) != parallelSess.Decide(w, idx, x) {
				t.Fatalf("decision diverged at wave %d step %d", w, idx)
			}
		}
	}
}

// failingOn wraps a decision tree that refuses to fit label l's data — told
// apart by the offset of its impacts, see offsetLog — in the final-fit
// position (the whole log, n rows) when final is set, else in the fold
// positions (fewer rows).
func failingOn(n int, final bool, labels ...int) func() ml.Classifier {
	return func() ml.Classifier {
		return &failingFit{Tree: ml.NewTree(ml.TreeConfig{Seed: 1}), n: n, final: final, labels: labels}
	}
}

type failingFit struct {
	*ml.Tree
	n      int
	final  bool
	labels []int
}

func (f *failingFit) Fit(d ml.Dataset) error {
	for _, l := range f.labels {
		if int(d.X[0][0]/10) == l && (d.Len() == f.n) == f.final {
			return fmt.Errorf("refused label %d", l)
		}
	}
	return f.Tree.Fit(d)
}

// offsetLog is syntheticLog with label l's impacts shifted into [10l, 10l+10).
func offsetLog(n, labels int) Dataset {
	d := syntheticLog(n, labels, 13)
	for _, row := range d.X {
		for l := range row {
			row[l] += float64(10 * l)
		}
	}
	return d
}

// TestTrainFirstErrorAtAnyParallelism: when fits fail, Train reports the
// first failure in task order — final fits in label order, then folds in
// (label, fold) order — whatever the parallelism.
func TestTrainFirstErrorAtAnyParallelism(t *testing.T) {
	const n = 120
	for _, tc := range []struct {
		final bool
		want  string
	}{
		{final: true, want: "train predictor: label 1: refused label 1"},
		{final: false, want: "test label 1: cv fold 0 fit: refused label 1"},
	} {
		for _, par := range []int{1, 4} {
			sess := NewSession(Config{Seed: 5, Parallelism: par, Factory: failingOn(n, tc.final, 2, 1)})
			log := offsetLog(n, 3)
			for i := range log.X {
				sess.ObserveTrainingWave(log.X[i], log.Y[i])
			}
			if _, err := sess.Train(); err == nil || err.Error() != tc.want {
				t.Errorf("final %v, parallelism %d: Train error %v, want %q", tc.final, par, err, tc.want)
			}
		}
	}
}
