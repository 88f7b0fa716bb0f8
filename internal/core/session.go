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
	// Factory constructs the classifier each fit trains (default a Random
	// Forest seeded Seed).
	Factory func() ml.Classifier
	// Thresholds are the per-label (or single shared) decision
	// thresholds; values below 0.5 favour recall / bound compliance at
	// the cost of saved executions (§5.2).
	Thresholds []float64
	// PositiveWeight oversamples execute-labelled waves when training the
	// default Random Forest (ignored when Factory is set); values above
	// 1 bias the predictor toward recall (§5.2's recall optimization).
	PositiveWeight float64
	// MinAccuracy and MinRecall are the test-phase acceptance criteria;
	// zero disables the corresponding check.
	MinAccuracy float64
	MinRecall   float64
	// Seed drives every stochastic component.
	Seed int64
	// Parallelism bounds how many training tasks run at once — the
	// per-label final fits and the test phase's (label, fold)
	// cross-validation fits, one fan-out in Train. 0 selects
	// runtime.GOMAXPROCS(0); at 1 training is sequential: the tasks
	// run one after another on the caller, and a Random Forest fits its
	// trees on its task's goroutine. Reports and fitted predictors are
	// bit-identical for every setting: fold partitions are drawn from the
	// session RNG in label order before any task runs, and per-fold
	// predictions are pooled in (label, fold) order afterwards.
	Parallelism int
}

// workers resolves the effective training concurrency.
func (c Config) workers() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// testFolds is the test phase's cross-validation fold count (§3.2).
const testFolds = 10

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

	mu sync.RWMutex
	// kb is the knowledge base: per training wave, the input-impact vector ι
	// of every gated step and whether each step's maxε was (simulated to be)
	// reached.
	kb        Dataset
	predictor *Predictor
	// fittedOn is how many knowledge-base examples predictor was fitted on
	// (0 = untrained); only SessionCheckpoint reads it.
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
		cfg:   cfg,
		phase: PhaseTraining,
	}
}

// KnowledgeBase returns a copy of the session's knowledge base.
//
//sflint:ignore unused only bench/ calls it; bench/ is frozen until ROADMAP item 4, and item 13(b) deletes it after
func (s *Session) KnowledgeBase() Dataset {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.kb.clone()
}

// Phase returns the current lifecycle phase.
//
//sflint:ignore unused read by the lifecycle tests (TestSessionLifecycle, TestRunPipelineEndToEnd)
func (s *Session) Phase() Phase {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.phase
}

// ObserveTrainingWave logs one synchronous wave's impact vector and
// simulated labels into the knowledge base.
func (s *Session) ObserveTrainingWave(impacts []float64, labels []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observeLocked(impacts, labels)
}

// observeLocked appends one example to the knowledge base. Labels of -1
// (step not evaluated this wave) are recorded as 0 — no execution required.
func (s *Session) observeLocked(impacts []float64, labels []int) {
	clean := make([]int, len(labels))
	for i, l := range labels {
		if l == 1 {
			clean[i] = 1
		}
	}
	s.kb.Append(impacts, clean)
}

// Train fits the predictor on the knowledge base and runs the test phase.
// On acceptance the session moves to the application phase; otherwise it
// stays in training so more waves can be collected (§3.2: "if results are
// not satisfactory, a training phase takes place again").
func (s *Session) Train() (TestReport, error) {
	start := time.Now()
	s.mu.RLock()
	trainObs := s.obs
	data := s.kb.clone()
	s.mu.RUnlock()
	var sp *obs.Span
	if trainObs != nil {
		sp = trainObs.o.RootSpan("train/t"+strconv.FormatUint(s.trainSeq.Add(1)-1, 10), "train", "ml")
	}
	predictor, report, err := s.train(data)
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

// SessionFactory returns the classifier factory a session built from cfg
// fits: cfg.Factory when set, else a Random Forest seeded cfg.Seed and
// weighted by cfg.PositiveWeight.
func SessionFactory(cfg Config) func() ml.Classifier {
	if cfg.Factory != nil {
		return cfg.Factory
	}
	return func() ml.Classifier {
		return ml.NewForest(ml.ForestConfig{Seed: cfg.Seed, PositiveWeight: cfg.PositiveWeight})
	}
}

// train builds the predictor this session's Config makes from data — one
// plan per label and one fan-out over every fit — and runs the §3.2 test
// phase: per-label stratified k-fold cross-validation on the same plans, with
// the fold partitions drawn from the session RNG in label order before any fit
// runs and per-fold predictions pooled in (label, fold) order afterwards, so
// the report does not depend on Config.Parallelism.
func (s *Session) train(data Dataset) (*Predictor, TestReport, error) {
	factory := SessionFactory(s.cfg)
	plans, err := planLabels(data, s.cfg.Thresholds, testFolds, rand.New(rand.NewSource(s.cfg.Seed+1)))
	if err != nil {
		return nil, TestReport{}, err
	}
	predictor, scored, err := fitPlans(factory, plans, s.cfg.workers())
	if err != nil {
		return nil, TestReport{}, err
	}
	report := TestReport{Accepted: true}
	for l, plan := range plans {
		cv := eval.CVResult{AUC: 0.5} // too few examples to cross-validate: chance level
		if plan.k >= 2 {
			if cv, err = eval.CrossValidateFolds(scored[l], plan.k); err != nil {
				return nil, TestReport{}, fmt.Errorf("test label %d: %w", l, err)
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
	return predictor, report, nil
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
