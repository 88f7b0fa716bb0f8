package core

import (
	"strconv"
	"sync"

	"smartflux/internal/obs"
)

// DriftDetector implements §3.1's on-demand retraining trigger: "these two
// sequential phases, training and test, can be performed either regularly
// from time to time or on-demand (useful if data patterns start to change
// suddenly)". It watches, over a sliding window of application-phase waves,
// how often the predictor's decisions disagree with what the observed data
// says in hindsight, and signals when the disagreement rate leaves the band
// the test phase promised.
//
// The hindsight label for a wave is available whenever a step executed: the
// engine's shadow error trackers report whether the fresh output actually
// deviated beyond maxε. A skipped step contributes a disagreement when its
// accumulated impact later forces an execution whose realized error far
// exceeds the bound.
type DriftDetector struct {
	mu sync.Mutex

	window    []bool // true = prediction agreed with hindsight
	bad       int    // disagreements currently in the window
	capacity  int
	threshold float64
	minFill   int
	drifted   bool // last reported drift state, for edge-triggered signals

	obs *driftObs
}

// driftObs holds the pre-resolved instruments of an attached observer.
type driftObs struct {
	o         *obs.Observer
	agreed    *obs.Counter
	disagreed *obs.Counter
	signals   *obs.Counter
	rate      *obs.Gauge
	// spanSeq numbers drift-signal marker spans (drift/d0, drift/d1, ...);
	// guarded by the detector's mu like the rest of the state.
	spanSeq int
}

// NewDriftDetector creates a detector over a sliding window of `window`
// observations that signals drift when the disagreement rate exceeds
// threshold (e.g. 0.3). The detector stays silent until the window is at
// least half full.
func NewDriftDetector(window int, threshold float64) *DriftDetector {
	if window <= 0 {
		window = 100
	}
	if threshold <= 0 || threshold > 1 {
		threshold = 0.3
	}
	return &DriftDetector{
		capacity:  window,
		threshold: threshold,
		minFill:   window / 2,
	}
}

// Instrument attaches an observer: agreement/disagreement counters, a
// windowed disagreement-rate gauge, and a counter of drift signals (counted
// once per crossing, not per Drifted call). Passing nil detaches.
func (d *DriftDetector) Instrument(o *obs.Observer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if o == nil {
		d.obs = nil
		return
	}
	d.obs = &driftObs{
		o:         o,
		agreed:    o.Counter(`smartflux_drift_observations_total{outcome="agreed"}`),
		disagreed: o.Counter(`smartflux_drift_observations_total{outcome="disagreed"}`),
		signals:   o.Counter("smartflux_drift_signals_total"),
		rate:      o.Gauge("smartflux_drift_disagreement_rate"),
	}
}

// Observe records one prediction outcome: agreed=true when the decision
// matched the hindsight label.
func (d *DriftDetector) Observe(agreed bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.window = append(d.window, agreed)
	if !agreed {
		d.bad++
	}
	if len(d.window) > d.capacity {
		if !d.window[0] {
			d.bad--
		}
		d.window = d.window[1:]
	}
	if do := d.obs; do != nil {
		if agreed {
			do.agreed.Inc()
		} else {
			do.disagreed.Inc()
		}
		do.rate.Set(d.rateLocked())
	}
}

// rateLocked returns the windowed disagreement rate; callers hold d.mu.
func (d *DriftDetector) rateLocked() float64 {
	if len(d.window) == 0 {
		return 0
	}
	return float64(d.bad) / float64(len(d.window))
}

// DisagreementRate returns the current windowed disagreement rate.
func (d *DriftDetector) DisagreementRate() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rateLocked()
}

// Drifted reports whether the disagreement rate has crossed the threshold
// (with at least half a window of evidence).
func (d *DriftDetector) Drifted() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	drifted := len(d.window) >= d.minFill && d.rateLocked() > d.threshold
	if drifted && !d.drifted {
		if do := d.obs; do != nil {
			do.signals.Inc()
			// A drift crossing is an instant, not an interval: emit a
			// zero-ish-duration marker span so the trace timeline shows
			// when retraining was triggered.
			sp := do.o.RootSpan("drift/d"+strconv.Itoa(do.spanSeq), "drift.signal", "ml")
			if sp != nil {
				do.spanSeq++
				sp.SetAttr("rate", strconv.FormatFloat(d.rateLocked(), 'g', 6, 64))
				sp.End()
			}
		}
	}
	d.drifted = drifted
	return drifted
}

// Reset clears the window (call after retraining).
func (d *DriftDetector) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.window = d.window[:0]
	d.bad = 0
	d.drifted = false
	if do := d.obs; do != nil {
		do.rate.Set(0)
	}
}

// Retrain folds fresh observations into the knowledge base and rebuilds the
// predictor: the §3.1 on-demand retraining path. The session drops back to
// the training phase if the refreshed model fails the test-phase criteria.
func (s *Session) Retrain(impacts [][]float64, labels [][]int) (TestReport, error) {
	s.mu.Lock()
	for i := range impacts {
		s.observeLocked(impacts[i], labels[i])
	}
	so := s.obs
	s.mu.Unlock()
	if so != nil {
		so.retrains.Inc()
	}
	return s.Train()
}
