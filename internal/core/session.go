package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"smartflux/internal/ml"
	"smartflux/internal/ml/eval"
	"smartflux/internal/ml/multilabel"
	"smartflux/internal/obs"
)

// Phase is the SmartFlux lifecycle phase (§4.1's operating modes, with the
// test phase of §3.2 in between).
type Phase int

const (
	// PhaseTraining collects (ι, label) tuples while the workflow runs
	// synchronously.
	PhaseTraining Phase = iota + 1
	// PhaseTesting assesses the trained model with cross-validation.
	PhaseTesting
	// PhaseApplication runs the workflow adaptively under the predictor.
	PhaseApplication
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseTraining:
		return "training"
	case PhaseTesting:
		return "testing"
	case PhaseApplication:
		return "application"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Config configures a SmartFlux session.
type Config struct {
	// Classifier names the learning algorithm (default random-forest).
	Classifier string
	// Factory overrides Classifier with a custom constructor.
	Factory func() ml.Classifier
	// Thresholds are the per-label (or single shared) decision
	// thresholds; values below 0.5 favour recall / bound compliance at
	// the cost of saved executions (§5.2).
	Thresholds []float64
	// PositiveWeight oversamples execute-labelled waves when training the
	// default Random Forest (ignored for other classifiers); values above
	// 1 bias the predictor toward recall (§5.2's recall optimization).
	PositiveWeight float64
	// FeatureMode selects the features each per-label model sees
	// (default FeatureOwnImpact).
	FeatureMode FeatureMode
	// TestFolds is the cross-validation fold count (default 10, §3.2).
	TestFolds int
	// MinAccuracy and MinRecall are the test-phase acceptance criteria;
	// zero disables the corresponding check.
	MinAccuracy float64
	MinRecall   float64
	// Seed drives every stochastic component.
	Seed int64
	// Parallelism bounds concurrent work in Train: per-label model fits
	// and test-phase (label, fold) cross-validation tasks. 0 selects
	// runtime.GOMAXPROCS(0), 1 trains sequentially. Reports and fitted
	// predictors are bit-identical for every setting: fold partitions are
	// drawn sequentially from the session RNG in label order before any
	// task runs, and per-fold predictions are pooled in (label, fold)
	// order afterwards.
	Parallelism int
}

// workers resolves the effective training concurrency.
func (c Config) workers() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) withDefaults() Config {
	if c.TestFolds <= 0 {
		c.TestFolds = 10
	}
	if c.FeatureMode == 0 {
		c.FeatureMode = FeatureOwnImpact
	}
	return c
}

// TestReport carries the per-label test-phase quality measurements (§3.2:
// accuracy, precision, recall via 10-fold cross-validation).
type TestReport struct {
	PerLabel []eval.CVResult
	// Accepted reports whether every label met the configured minimums.
	Accepted bool
}

// Macro aggregates the per-label metrics by unweighted averaging.
func (r TestReport) Macro() eval.CVResult {
	if len(r.PerLabel) == 0 {
		return eval.CVResult{}
	}
	var out eval.CVResult
	for _, m := range r.PerLabel {
		out.Accuracy += m.Accuracy
		out.Precision += m.Precision
		out.Recall += m.Recall
		out.F1 += m.F1
		out.AUC += m.AUC
	}
	n := float64(len(r.PerLabel))
	out.Accuracy /= n
	out.Precision /= n
	out.Recall /= n
	out.F1 /= n
	out.AUC /= n
	out.Folds = r.PerLabel[0].Folds
	return out
}

// Session is the QoD Engine: it owns the knowledge base, coordinates the
// training → test → application lifecycle and, once trained, implements
// engine.Decider so the execution engine can consult it each wave.
type Session struct {
	cfg Config

	mu        sync.RWMutex
	kb        *KnowledgeBase
	predictor *Predictor
	// fittedOn is how many knowledge-base examples predictor was fitted on
	// (0 = untrained). The knowledge base only grows, so the predictor is a
	// function of Config and KB[:fittedOn] — all a checkpoint records of it.
	fittedOn int
	phase    Phase
	report   TestReport
	obs      *sessionObs
	// trainSeq numbers Train invocations so train spans get deterministic
	// IDs (train/t0, train/t1, ...) across initial fits and drift retrains.
	trainSeq atomic.Uint64
}

// sessionObs holds the pre-resolved instruments of an attached observer so
// the per-wave Decide path pays no registry lookups.
type sessionObs struct {
	o           *obs.Observer
	predictions *obs.Counter
	failsafe    *obs.Counter
	trains      *obs.Counter
	retrains    *obs.Counter
	accepted    *obs.Counter
	rejected    *obs.Counter
	phaseGauge  *obs.Gauge
	trainDur    *obs.Histogram
	accuracy    *obs.Gauge
	recall      *obs.Gauge
}

// Instrument attaches an observer to the session: lifecycle phase gauge and
// transition counters, train/retrain counters and durations, test-phase
// quality gauges, and per-wave prediction/fail-safe counters. Passing nil
// detaches; with no observer every hook is a no-op.
func (s *Session) Instrument(o *obs.Observer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if o == nil {
		s.obs = nil
		return
	}
	s.obs = &sessionObs{
		o:           o,
		predictions: o.Counter("smartflux_session_predictions_total"),
		failsafe:    o.Counter("smartflux_session_failsafe_executions_total"),
		trains:      o.Counter("smartflux_session_trains_total"),
		retrains:    o.Counter("smartflux_session_retrains_total"),
		accepted:    o.Counter(`smartflux_session_test_outcomes_total{outcome="accepted"}`),
		rejected:    o.Counter(`smartflux_session_test_outcomes_total{outcome="rejected"}`),
		phaseGauge:  o.Gauge("smartflux_session_phase"),
		trainDur:    o.Histogram("smartflux_session_train_duration_seconds"),
		accuracy:    o.Gauge("smartflux_session_test_accuracy"),
		recall:      o.Gauge("smartflux_session_test_recall"),
	}
	s.obs.phaseGauge.Set(float64(s.phase))
}

// NewSession creates a session in the training phase.
func NewSession(cfg Config) *Session {
	return &Session{
		cfg:   cfg.withDefaults(),
		kb:    NewKnowledgeBase(),
		phase: PhaseTraining,
	}
}

// KnowledgeBase exposes the session's example log.
func (s *Session) KnowledgeBase() *KnowledgeBase { return s.kb }

// Phase returns the current lifecycle phase.
func (s *Session) Phase() Phase {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.phase
}

// ObserveTrainingWave logs one synchronous wave's impact vector and
// simulated labels into the knowledge base.
func (s *Session) ObserveTrainingWave(impacts []float64, labels []int) {
	s.kb.Append(impacts, labels)
}

// Train fits the predictor on the knowledge base and runs the test phase.
// On acceptance the session moves to the application phase; otherwise it
// stays in training so more waves can be collected (§3.2: "if results are
// not satisfactory, a training phase takes place again").
func (s *Session) Train() (TestReport, error) {
	start := time.Now()
	s.mu.RLock()
	trainObs := s.obs
	s.mu.RUnlock()
	var sp *obs.Span
	if trainObs != nil {
		sp = trainObs.o.RootSpan("train/t"+strconv.FormatUint(s.trainSeq.Add(1)-1, 10), "train", "ml")
	}
	data := s.kb.Snapshot()
	predictor, factory, err := s.fit(data)
	if err != nil {
		sp.EndErr(err)
		return TestReport{}, err
	}

	report, err := s.test(factory, data)
	if err != nil {
		sp.EndErr(err)
		return TestReport{}, err
	}
	sp.SetAttr("accepted", strconv.FormatBool(report.Accepted))
	sp.SetAttr("examples", strconv.Itoa(len(data.X)))
	sp.End()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.predictor = predictor
	s.fittedOn = data.Len()
	s.report = report
	if report.Accepted {
		s.phase = PhaseApplication
	} else {
		s.phase = PhaseTraining
	}
	if so := s.obs; so != nil {
		so.trains.Inc()
		so.trainDur.Observe(time.Since(start).Seconds())
		so.phaseGauge.Set(float64(s.phase))
		so.o.Counter(fmt.Sprintf("smartflux_session_phase_transitions_total{phase=%q}", s.phase)).Inc()
		if report.Accepted {
			so.accepted.Inc()
		} else {
			so.rejected.Inc()
		}
		macro := report.Macro()
		so.accuracy.Set(macro.Accuracy)
		so.recall.Set(macro.Recall)
	}
	return report, nil
}

// fit is the first half of Train and all of a restore: the predictor this
// session's Config builds from data. The resolved classifier factory is
// returned for the test phase to reuse.
func (s *Session) fit(data multilabel.Dataset) (*Predictor, func() ml.Classifier, error) {
	factory := s.cfg.Factory
	if factory == nil {
		if weight := s.cfg.PositiveWeight; weight > 0 &&
			(s.cfg.Classifier == "" || s.cfg.Classifier == ClassifierRandomForest) {
			seed := s.cfg.Seed
			factory = func() ml.Classifier {
				return ml.NewForest(ml.ForestConfig{Seed: seed, PositiveWeight: weight})
			}
		} else {
			var err error
			factory, err = ClassifierFactory(s.cfg.Classifier, s.cfg.Seed)
			if err != nil {
				return nil, nil, err
			}
		}
	}
	predictor, err := newPredictor(factory, data, s.cfg.Thresholds, s.cfg.FeatureMode, s.cfg.Parallelism)
	return predictor, factory, err
}

// test runs the §3.2 test phase: per-label stratified k-fold
// cross-validation on the training log. The (label, fold) fit/score tasks
// run concurrently when Config.Parallelism allows, yet the report is
// bit-identical to a sequential run: every fold partition is drawn from the
// shared session RNG in label order up front (preserving the historical draw
// sequence exactly), and per-fold predictions are pooled in (label, fold)
// order afterwards.
func (s *Session) test(factory func() ml.Classifier, data multilabel.Dataset) (TestReport, error) {
	report := TestReport{Accepted: true}
	rng := rand.New(rand.NewSource(s.cfg.Seed + 1))
	threshold := 0.5
	if len(s.cfg.Thresholds) == 1 {
		threshold = s.cfg.Thresholds[0]
	}

	// Phase 1 — sequential: project each label's dataset and draw its fold
	// partition from the shared RNG.
	type labelPlan struct {
		binary ml.Dataset
		th     float64
		folds  []eval.Fold
		k      int // fold count reported in CVResult.Folds
		chance bool
	}
	plans := make([]labelPlan, data.Labels())
	for l := 0; l < data.Labels(); l++ {
		binary, err := data.Label(l)
		if err != nil {
			return TestReport{}, err
		}
		if s.cfg.FeatureMode == FeatureOwnImpact {
			projected := make([][]float64, len(binary.X))
			for i, row := range binary.X {
				if l >= len(row) {
					return TestReport{}, fmt.Errorf("core: own-impact test needs one impact per label (label %d, %d impacts)", l, len(row))
				}
				projected[i] = []float64{row[l]}
			}
			binary.X = projected
		}
		th := threshold
		if len(s.cfg.Thresholds) == data.Labels() && data.Labels() > 1 {
			th = s.cfg.Thresholds[l]
		}
		folds := s.cfg.TestFolds
		if binary.Len() < folds*2 {
			// Tiny logs: fall back to the largest workable fold count.
			folds = binary.Len() / 2
		}
		plans[l] = labelPlan{binary: binary, th: th, k: folds, chance: folds < 2}
		if folds >= 2 {
			if err := binary.Validate(); err != nil {
				return TestReport{}, fmt.Errorf("test label %d: %w", l, err)
			}
			plans[l].folds, err = eval.StratifiedKFold(binary.Y, folds, rng)
			if err != nil {
				return TestReport{}, fmt.Errorf("test label %d: %w", l, err)
			}
		}
	}

	// Phase 2 — parallel: fit and score every (label, fold) task into its
	// indexed slot.
	type task struct{ l, fi int }
	var tasks []task
	scored := make([][]eval.FoldScores, len(plans))
	errs := make([][]error, len(plans))
	for l := range plans {
		scored[l] = make([]eval.FoldScores, len(plans[l].folds))
		errs[l] = make([]error, len(plans[l].folds))
		for fi := range plans[l].folds {
			tasks = append(tasks, task{l, fi})
		}
	}
	run := func(t task) {
		plan := &plans[t.l]
		scored[t.l][t.fi], errs[t.l][t.fi] = eval.ScoreFold(factory, plan.binary, plan.folds[t.fi], t.fi, plan.th)
	}
	if workers := s.cfg.workers(); workers <= 1 || len(tasks) <= 1 {
		for _, t := range tasks {
			run(t)
		}
	} else {
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for _, t := range tasks {
			wg.Add(1)
			sem <- struct{}{}
			go func(t task) {
				defer wg.Done()
				run(t)
				<-sem
			}(t)
		}
		wg.Wait()
	}

	// Phase 3 — sequential: pool per-fold predictions and derive metrics in
	// label order; the first error in (label, fold) order wins.
	for l := range plans {
		var cv eval.CVResult
		if plans[l].chance {
			// Too few examples to cross-validate; report chance level.
			cv = eval.CVResult{Accuracy: 0, Precision: 0, Recall: 0, AUC: 0.5}
		} else {
			for _, err := range errs[l] {
				if err != nil {
					return TestReport{}, fmt.Errorf("test label %d: %w", l, err)
				}
			}
			var err error
			cv, err = eval.CrossValidateFolds(scored[l], plans[l].k)
			if err != nil {
				return TestReport{}, fmt.Errorf("test label %d: %w", l, err)
			}
		}
		report.PerLabel = append(report.PerLabel, cv)
		if s.cfg.MinAccuracy > 0 && cv.Accuracy < s.cfg.MinAccuracy {
			report.Accepted = false
		}
		if s.cfg.MinRecall > 0 && cv.Recall < s.cfg.MinRecall {
			report.Accepted = false
		}
	}
	return report, nil
}

// LastTestReport returns the most recent test-phase report.
func (s *Session) LastTestReport() TestReport {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.report
}

// Predictor returns the trained predictor, or ErrNotTrained.
func (s *Session) Predictor() (*Predictor, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.predictor == nil {
		return nil, ErrNotTrained
	}
	return s.predictor, nil
}

// sessionPolicy is the session's name as a policy.
const sessionPolicy = "smartflux"

// Name implements engine.Decider.
func (s *Session) Name() string { return sessionPolicy }

// Decide implements engine.Decider: before training completes every step
// executes (synchronous behaviour); afterwards the predictor gates
// execution. Prediction failures fail safe by executing the step.
func (s *Session) Decide(_ int, stepIdx int, impacts []float64) bool {
	s.mu.RLock()
	predictor := s.predictor
	phase := s.phase
	so := s.obs
	s.mu.RUnlock()
	if predictor == nil || phase != PhaseApplication {
		return true
	}
	if so != nil {
		so.predictions.Inc()
	}
	run, err := predictor.Decide(stepIdx, impacts)
	if err != nil {
		if so != nil {
			so.failsafe.Inc()
		}
		return true
	}
	return run
}
