package core

import (
	"reflect"
	"strings"
	"testing"

	"smartflux/internal/obs"
)

func TestSessionInstrumented(t *testing.T) {
	sess := NewSession(Config{Seed: 1})
	reg := obs.NewRegistry()
	sess.Instrument(obs.New(reg))

	log := syntheticLog(200, 2, 13)
	for i := range log.X {
		sess.ObserveTrainingWave(log.X[i], log.Y[i])
	}
	if _, err := sess.Train(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 10; w++ {
		sess.Decide(w, 0, []float64{9, 9})
	}

	snap := reg.Snapshot()
	if got := snap.Counters["smartflux_session_trains_total"]; got != 1 {
		t.Errorf("trains = %d, want 1", got)
	}
	if got := snap.Counters[`smartflux_session_test_outcomes_total{outcome="accepted"}`]; got != 1 {
		t.Errorf("accepted = %d, want 1", got)
	}
	if got := snap.Counters["smartflux_session_predictions_total"]; got != 10 {
		t.Errorf("predictions = %d, want 10", got)
	}
	if got := snap.Counters["smartflux_session_failsafe_executions_total"]; got != 0 {
		t.Errorf("failsafe = %d, want 0 after training", got)
	}
	if got := snap.Gauges["smartflux_session_phase"]; got != float64(PhaseApplication) {
		t.Errorf("phase gauge = %v, want application", got)
	}
	if got := snap.Gauges["smartflux_session_test_accuracy"]; got < 0.9 {
		t.Errorf("accuracy gauge = %v", got)
	}
	if h := snap.Histograms["smartflux_session_train_duration_seconds"]; h.Count != 1 {
		t.Errorf("train duration samples = %d, want 1", h.Count)
	}
	var sawTransition bool
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "smartflux_session_phase_transitions_total{") && v > 0 {
			sawTransition = true
		}
	}
	if !sawTransition {
		t.Error("missing phase-transition counters")
	}
}

// A restore is a recovery, not a training event: it fits the predictor and
// nothing else, so an instrumented session's train counters, test outcomes,
// phase transitions and train-duration samples are what they were before.
func TestRestoreCheckpointIsNotATrainingEvent(t *testing.T) {
	for _, classifier := range []string{ClassifierRandomForest, ClassifierLogistic} {
		cfg := Config{Seed: 1, Classifier: classifier}
		cp, err := trainedSession(t, cfg).Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		sess := NewSession(cfg)
		reg := obs.NewRegistry()
		ring := obs.NewSpanRing(8)
		sess.Instrument(obs.New(reg).WithSpanSinks(ring))
		before := reg.Snapshot()
		if err := sess.RestoreCheckpoint(cp); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Predictor(); err != nil {
			t.Fatal(err)
		}
		after := reg.Snapshot()
		if !reflect.DeepEqual(before.Counters, after.Counters) {
			t.Errorf("%s: restore moved counters: %v -> %v", classifier, before.Counters, after.Counters)
		}
		if h := after.Histograms["smartflux_session_train_duration_seconds"]; h.Count != 0 {
			t.Errorf("%s: restore recorded %d train durations", classifier, h.Count)
		}
		if got := after.Gauges["smartflux_session_phase"]; got != float64(PhaseApplication) {
			t.Errorf("%s: phase gauge = %v, want application", classifier, got)
		}
		spans := ring.Tail(0)
		if len(spans) != 1 || spans[0].Name != "restore" {
			t.Errorf("%s: restore emitted spans %+v, want one restore span", classifier, spans)
		}
	}
}

func TestSessionFailsafeCounted(t *testing.T) {
	sess := NewSession(Config{Seed: 1})
	reg := obs.NewRegistry()
	sess.Instrument(obs.New(reg))

	// Untrained decisions are synchronous behaviour, not predictions.
	for w := 0; w < 5; w++ {
		if !sess.Decide(w, 0, []float64{1, 1}) {
			t.Fatal("untrained session must execute")
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["smartflux_session_predictions_total"]; got != 0 {
		t.Errorf("predictions = %d, want 0 before training", got)
	}
	if got := snap.Counters["smartflux_session_failsafe_executions_total"]; got != 0 {
		t.Errorf("failsafe = %d, want 0 before training", got)
	}

	log := syntheticLog(200, 2, 13)
	for i := range log.X {
		sess.ObserveTrainingWave(log.X[i], log.Y[i])
	}
	if _, err := sess.Train(); err != nil {
		t.Fatal(err)
	}
	// A malformed feature vector forces a prediction error; the session
	// fails safe by executing, and the fall-back is counted.
	if !sess.Decide(0, 0, []float64{1}) {
		t.Fatal("prediction failure must fail safe to execution")
	}
	snap = reg.Snapshot()
	if got := snap.Counters["smartflux_session_failsafe_executions_total"]; got != 1 {
		t.Errorf("failsafe = %d, want 1", got)
	}
}

func TestDriftDetectorInstrumented(t *testing.T) {
	d := NewDriftDetector(10, 0.3)
	reg := obs.NewRegistry()
	d.Instrument(obs.New(reg))

	for i := 0; i < 6; i++ {
		d.Observe(true)
	}
	for i := 0; i < 4; i++ {
		d.Observe(false)
	}
	if !d.Drifted() {
		t.Fatal("40% disagreement must trip a 30% threshold")
	}
	// Repeated polls must not re-count the same drift signal.
	d.Drifted()
	d.Drifted()

	snap := reg.Snapshot()
	if got := snap.Counters[`smartflux_drift_observations_total{outcome="agreed"}`]; got != 6 {
		t.Errorf("agreed = %d, want 6", got)
	}
	if got := snap.Counters[`smartflux_drift_observations_total{outcome="disagreed"}`]; got != 4 {
		t.Errorf("disagreed = %d, want 4", got)
	}
	if got := snap.Counters["smartflux_drift_signals_total"]; got != 1 {
		t.Errorf("drift signals = %d, want exactly 1 (edge-triggered)", got)
	}
	if got := snap.Gauges["smartflux_drift_disagreement_rate"]; got != 0.4 {
		t.Errorf("disagreement rate gauge = %v, want 0.4", got)
	}

	d.Reset()
	if d.Drifted() {
		t.Fatal("reset must clear the drift state")
	}
}

func TestSessionRetrainCounted(t *testing.T) {
	sess := NewSession(Config{Seed: 1})
	reg := obs.NewRegistry()
	sess.Instrument(obs.New(reg))

	log := syntheticLog(200, 2, 13)
	for i := range log.X {
		sess.ObserveTrainingWave(log.X[i], log.Y[i])
	}
	if _, err := sess.Train(); err != nil {
		t.Fatal(err)
	}
	fresh := syntheticLog(100, 2, 29)
	if _, err := sess.Retrain(fresh.X, fresh.Y); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["smartflux_session_retrains_total"]; got != 1 {
		t.Errorf("retrains = %d, want 1", got)
	}
	if got := snap.Counters["smartflux_session_trains_total"]; got != 2 {
		t.Errorf("trains = %d, want 2 (initial + retrain)", got)
	}
}
