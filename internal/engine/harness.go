package engine

import (
	"errors"
	"fmt"
	"time"

	"smartflux/internal/kvstore"
	"smartflux/internal/metric"
	"smartflux/internal/obs"
	"smartflux/internal/stats"
	"smartflux/internal/workflow"
)

// BuildFunc constructs one fresh, identical copy of a workload: the
// finalized workflow wired to its own store. Harnesses call it twice (live +
// reference); workload generators must be deterministic so both copies see
// identical waves. The two copies may run at the same time: they must share
// no mutable state, and a hook both copies call must be safe for concurrent use.
type BuildFunc func() (*workflow.Workflow, *kvstore.Store, error)

// StepReport carries per-wave error measurements for one reported step.
//
// Measured and Predicted follow the paper's §2.2 semantics: the output error
// of a step is the *local* penalty of postponing its execution — the cost of
// the changes missed in its output container — not the compounded deviation
// of the whole pipeline. Both are therefore derived from the synchronous
// reference outputs over the live execution schedule. EndToEnd additionally
// records the raw divergence of the live output from the synchronous
// reference, which includes upstream staleness compounding.
type StepReport struct {
	// MaxError is the step's bound maxε.
	MaxError float64
	// Measured is the point-in-time deviation of the fresh (synchronous)
	// output from the output at the step's last live execution (§5.2
	// "measured error").
	Measured []float64
	// Predicted accumulates the per-wave simulated errors across skipped
	// waves, resetting on execution — the error SmartFlux accounts for
	// (§5.2 "predicted error").
	Predicted []float64
	// EndToEnd is the live-vs-reference output deviation including
	// cascaded upstream staleness (a stricter, whole-pipeline view).
	EndToEnd []float64
	// Violations flags waves where Measured exceeded MaxError.
	Violations []bool
	// Degraded flags waves where the step was forcibly skipped after
	// exhausting its retry budget; those waves accumulate Predicted error
	// exactly like decider-chosen skips.
	Degraded []bool
}

// Deviation returns the per-wave Predicted - Measured series (Figure 9's
// "prediction deviation").
func (r *StepReport) Deviation() []float64 {
	out := make([]float64, len(r.Measured))
	for i := range out {
		out[i] = r.Predicted[i] - r.Measured[i]
	}
	return out
}

// Confidence returns the normalized cumulative fraction of waves whose
// measured error respected the bound (Figure 10).
func (r *StepReport) Confidence() []float64 {
	ok := make([]float64, len(r.Violations))
	for i, v := range r.Violations {
		if !v {
			ok[i] = 1
		}
	}
	return stats.NormalizedCumulative(ok)
}

// ViolationCount returns how many waves violated the bound.
func (r *StepReport) ViolationCount() int {
	var n int
	for _, v := range r.Violations {
		if v {
			n++
		}
	}
	return n
}

// Result aggregates a harness run.
type Result struct {
	// Policy is the live decider's name.
	Policy string
	// Waves is the number of waves run.
	Waves int
	// GatedSteps lists the gated steps in topological order.
	GatedSteps []workflow.StepID
	// LiveExecuted is the per-wave execution matrix of the live instance
	// (wave × gated step).
	LiveExecuted [][]bool
	// LiveDegraded is the per-wave forced-skip matrix of the live instance
	// (wave × gated step): true where a step's retry budget ran out and it
	// was degraded to a skip.
	LiveDegraded [][]bool
	// RefLabels is the per-wave simulated-optimal decision matrix from
	// the reference instance (wave × gated step; the paper's "optimal").
	RefLabels [][]int
	// RefImpacts is the per-wave impact matrix observed by the reference
	// instance — the training features logged by the Monitoring component.
	RefImpacts [][]float64
	// RefSimErrors is the per-wave simulated-error matrix from the
	// reference instance (the ε of Figure 7's correlation pairs).
	RefSimErrors [][]float64
	// LiveImpacts is the per-wave impact matrix observed live.
	LiveImpacts [][]float64
	// Reports maps reported steps to their error series.
	Reports map[workflow.StepID]*StepReport
}

// Slice returns waves [from, to) of r as a view. Result series are
// append-only — a row is never written after it is appended — so the view
// shares r's rows, and every series is capped at its length: appending to r or
// to the view never writes into the other. A checkpoint, a restored result and
// a pipeline phase are all such views.
func (r *Result) Slice(from, to int) *Result {
	out := &Result{
		Policy:       r.Policy,
		Waves:        to - from,
		GatedSteps:   r.GatedSteps,
		LiveExecuted: r.LiveExecuted[from:to:to],
		LiveDegraded: r.LiveDegraded[from:to:to],
		RefLabels:    r.RefLabels[from:to:to],
		RefImpacts:   r.RefImpacts[from:to:to],
		RefSimErrors: r.RefSimErrors[from:to:to],
		LiveImpacts:  r.LiveImpacts[from:to:to],
		Reports:      make(map[workflow.StepID]*StepReport, len(r.Reports)),
	}
	for id, rep := range r.Reports {
		out.Reports[id] = &StepReport{
			MaxError:   rep.MaxError,
			Measured:   rep.Measured[from:to:to],
			Predicted:  rep.Predicted[from:to:to],
			EndToEnd:   rep.EndToEnd[from:to:to],
			Violations: rep.Violations[from:to:to],
			Degraded:   rep.Degraded[from:to:to],
		}
	}
	return out
}

// LiveExecutionsPerWave counts gated executions per wave in the live run.
func (r *Result) LiveExecutionsPerWave() []int {
	out := make([]int, len(r.LiveExecuted))
	for w, row := range r.LiveExecuted {
		for _, ex := range row {
			if ex {
				out[w]++
			}
		}
	}
	return out
}

// TotalLiveExecutions sums gated executions across all waves.
func (r *Result) TotalLiveExecutions() int {
	var n int
	for _, c := range r.LiveExecutionsPerWave() {
		n += c
	}
	return n
}

// TotalSyncExecutions is the execution count the SDF model would incur:
// every gated step at every wave.
func (r *Result) TotalSyncExecutions() int {
	return r.Waves * len(r.GatedSteps)
}

// TotalOptimalExecutions counts the simulated-optimal executions (Figure
// 12b/d "optimal").
func (r *Result) TotalOptimalExecutions() int {
	var n int
	for _, row := range r.RefLabels {
		for _, label := range row {
			if label == 1 {
				n++
			}
		}
	}
	return n
}

// NormalizedExecutions returns the per-wave cumulative live executions
// normalized by the cumulative synchronous executions (Figure 12a/c).
func (r *Result) NormalizedExecutions() []float64 {
	perWave := r.LiveExecutionsPerWave()
	out := make([]float64, len(perWave))
	var live, sync float64
	for w, c := range perWave {
		live += float64(c)
		sync += float64(len(r.GatedSteps))
		if sync > 0 {
			out[w] = live / sync
		}
	}
	return out
}

// SavingsRatio returns 1 - live/sync executions: the fraction of executions
// avoided relative to the SDF model.
func (r *Result) SavingsRatio() float64 {
	sync := r.TotalSyncExecutions()
	if sync == 0 {
		return 0
	}
	return 1 - float64(r.TotalLiveExecutions())/float64(sync)
}

// Harness runs a live instance under an arbitrary policy next to a
// synchronous reference instance of the same workload, measuring true output
// deviations and resource usage (§5.2-5.3).
type Harness struct {
	live *Instance
	ref  *Instance
	cfg  HarnessConfig

	reportSteps []workflow.StepID
	// measures holds one accumulator per report step, nil until the first
	// measure pass; a pass replaces the slice, so checkpoints share it.
	measures []MeasurePersist

	obs         *obs.Observer
	waveRetries *obs.Counter // nil when no observer is attached
}

// HarnessConfig configures harness construction.
type HarnessConfig struct {
	// Parallelism is ignored: each instance runs its wave on one goroutine,
	// and a wave's two instances overlap (ResumeRun).
	//
	// Deprecated: the frozen benchmark still sets it (ROADMAP.md item 13(b)).
	Parallelism int

	// StepTimeout, StepRetries, RetryBackoff and RetrySeed are forwarded
	// to both instances: when the workload itself is faulty (chaos tests,
	// flaky remote stores) the synchronous reference needs the same retry
	// budget as the live run to stay comparable.
	StepTimeout  time.Duration
	StepRetries  int
	RetryBackoff time.Duration
	RetrySeed    int64
	// DegradeGated is forwarded to the live instance only. Degrading the
	// reference would corrupt the optimal labels and the measurement
	// baseline — reference failures always propagate (and are retried at
	// the wave boundary under WaveRetries).
	DegradeGated bool
	// WaveRetries is how many times a failed wave — live or reference — or
	// a failed measure pass is re-run before the run fails. A failed wave is
	// rewound to its pre-wave mark, so each retry starts from identical
	// tracker state.
	WaveRetries int

	// Committer, when non-nil, receives a full HarnessCheckpoint after every
	// completed wave. The durability layer implements it by writing a commit
	// record to the write-ahead log; a commit error fails the run.
	Committer WaveCommitter
}

// NewHarness builds the live and reference instances via build. reportSteps
// selects the steps whose output error is measured against the reference;
// nil selects the workflow's gated output-most steps (the paper reports the
// last gated step of each workflow).
func NewHarness(build BuildFunc, reportSteps []workflow.StepID) (*Harness, error) {
	return NewHarnessWithConfig(build, reportSteps, HarnessConfig{})
}

// NewHarnessWithConfig is NewHarness with an explicit configuration.
func NewHarnessWithConfig(build BuildFunc, reportSteps []workflow.StepID, cfg HarnessConfig) (*Harness, error) {
	liveWf, liveStore, err := build()
	if err != nil {
		return nil, fmt.Errorf("harness live build: %w", err)
	}
	refWf, refStore, err := build()
	if err != nil {
		return nil, fmt.Errorf("harness ref build: %w", err)
	}
	resilience := InstanceConfig{
		StepTimeout:  cfg.StepTimeout,
		StepRetries:  cfg.StepRetries,
		RetryBackoff: cfg.RetryBackoff,
		RetrySeed:    cfg.RetrySeed,
	}
	liveCfg := resilience
	liveCfg.TrainingMode = false
	liveCfg.DegradeGated = cfg.DegradeGated
	live, err := NewInstance(liveWf, liveStore, liveCfg)
	if err != nil {
		return nil, fmt.Errorf("harness live instance: %w", err)
	}
	refCfg := resilience
	refCfg.TrainingMode = true
	ref, err := NewInstance(refWf, refStore, refCfg)
	if err != nil {
		return nil, fmt.Errorf("harness ref instance: %w", err)
	}

	if len(reportSteps) == 0 {
		reportSteps, err = defaultReportSteps(liveWf)
		if err != nil {
			return nil, err
		}
	}
	for _, id := range reportSteps {
		if live.GatedIndex(id) < 0 {
			return nil, fmt.Errorf("harness: report step %q is not gated", id)
		}
	}
	return &Harness{
		live:        live,
		ref:         ref,
		cfg:         cfg,
		reportSteps: reportSteps,
	}, nil
}

// defaultReportSteps picks the last gated step in topological order: the
// gated step closest to the workflow output.
func defaultReportSteps(wf *workflow.Workflow) ([]workflow.StepID, error) {
	gated, err := wf.GatedSteps()
	if err != nil {
		return nil, err
	}
	if len(gated) == 0 {
		return nil, fmt.Errorf("harness: workflow %q has no gated steps", wf.Name())
	}
	return []workflow.StepID{gated[len(gated)-1]}, nil
}

// Instrument attaches an observer to the harness, its live instance and the
// live instance's store. The live instance records the engine metrics;
// decision-event emission is deferred to the harness, which enriches each
// event with the reference instance's optimal label and — for report steps —
// the measured/predicted §5.2 error series before emitting. The reference
// instance stays uninstrumented so metrics describe the adaptive run only.
// Passing nil detaches.
func (h *Harness) Instrument(o *obs.Observer) {
	h.obs = o
	h.waveRetries = nil
	if o != nil {
		h.waveRetries = o.Counter("smartflux_engine_wave_retries_total")
	}
	h.live.Instrument(o)
	h.live.Store().Instrument(o)
	if h.live.obs != nil {
		h.live.obs.deferEmit = true
	}
}

// Live returns the policy-driven instance.
func (h *Harness) Live() *Instance { return h.live }

// Ref returns the synchronous reference instance.
func (h *Harness) Ref() *Instance { return h.ref }

// Run executes `waves` waves under decider and returns the aggregated
// result. When decider is *Oracle, its labels are refreshed from the
// reference instance before each live wave.
func (h *Harness) Run(waves int, decider Decider) (*Result, error) {
	res := &Result{
		Policy:     decider.Name(),
		GatedSteps: h.live.GatedSteps(),
		Reports:    make(map[workflow.StepID]*StepReport, len(h.reportSteps)),
	}
	for _, id := range h.reportSteps {
		step, err := h.live.Workflow().Step(id)
		if err != nil {
			return nil, err
		}
		res.Reports[id] = &StepReport{MaxError: step.QoD.MaxError}
	}
	if err := h.ResumeRun(res, waves, decider); err != nil {
		return nil, err
	}
	return res, nil
}

// ResumeRun executes `waves` additional waves (none when waves <= 0),
// appending to res: Run's own result, or one restored via RestoreCheckpoint —
// the instances continue from their wave counters, so the combined series is
// indistinguishable from an uninterrupted run. Each completed wave is
// committed to cfg.Committer (when set) after measurement, so the durability
// layer always checkpoints a consistent wave boundary.
//
// A wave's reference instance runs on a goroutine beside the live one, which
// waits for it only under an *Oracle (it reads the reference's labels) or a
// Committer (whose journal must not interleave the two stores' writes). A
// wave is atomic: if either instance or the measure pass fails, both
// instances are back in their pre-wave state and res is unchanged.
func (h *Harness) ResumeRun(res *Result, waves int, decider Decider) error {
	oracle, _ := decider.(*Oracle)
	ordered := oracle != nil || h.cfg.Committer != nil
	for n := 0; n < waves; n++ {
		w := res.Waves
		var ref waveRun
		refDone := make(chan struct{})
		go func() {
			defer close(refDone)
			ref = h.runWave(h.ref, Sync{}, "ref", w)
		}()
		if ordered {
			<-refDone
			if ref.err != nil {
				return ref.err
			}
			if oracle != nil {
				oracle.Labels = ref.res.Labels
			}
		}
		live := h.runWave(h.live, decider, "live", w)
		<-refDone
		err := errors.Join(ref.err, live.err)
		if err == nil {
			// Measuring re-runs report-step processors hypothetically, which
			// can fail under store faults just like real execution; a failed
			// pass has committed nothing, so a retry starts from the same
			// measurement state (DESIGN.md §2).
			if err = h.retryWave(func() error { return h.measure(res, live.res) }); err != nil {
				err = fmt.Errorf("harness measure wave %d: %w", w, err)
			}
		}
		if err != nil {
			// An instance whose wave failed is at its mark already, so
			// rewinding it again changes nothing.
			h.ref.rewind()
			h.live.rewind()
			return err
		}
		res.RefLabels = append(res.RefLabels, ref.res.Labels)
		res.RefImpacts = append(res.RefImpacts, ref.res.Impacts)
		res.RefSimErrors = append(res.RefSimErrors, ref.res.SimErrors)
		res.LiveExecuted = append(res.LiveExecuted, live.res.Executed)
		res.LiveDegraded = append(res.LiveDegraded, live.res.Degraded)
		res.LiveImpacts = append(res.LiveImpacts, live.res.Impacts)
		res.Waves++
		h.emitDecisions(res, live.res, ref.res)
		if h.cfg.Committer != nil {
			if err := h.cfg.Committer.CommitWave(h.Checkpoint(res)); err != nil {
				return fmt.Errorf("harness commit wave %d: %w", w, err)
			}
		}
	}
	return nil
}

// waveRun is one instance's part of a harness wave: what it produced, or the
// error that ended it.
type waveRun struct {
	res WaveResult
	err error
}

// runWave executes one wave of an instance, re-running it from its pre-wave
// mark under the wave-retry budget (retryWave). The rewind to the mark makes
// retries start from identical tracker state; only the store keeps any
// partial writes, which deterministic processors overwrite with identical
// latest values (DESIGN.md §2).
func (h *Harness) runWave(in *Instance, d Decider, which string, w int) waveRun {
	var run waveRun
	in.mark()
	if err := h.retryWave(func() (err error) { run.res, err = in.runMarked(d); return err }); err != nil {
		run.err = fmt.Errorf("harness %s wave %d: %w", which, w, err)
	}
	return run
}

// retryWave runs fn, and runs it again on failure up to WaveRetries times,
// counting each retry; it returns the last run's error.
func (h *Harness) retryWave(fn func() error) error {
	err := fn()
	for attempt := 0; err != nil && attempt < h.cfg.WaveRetries; attempt++ {
		h.waveRetries.Inc() // nil-safe no-op when uninstrumented
		err = fn()
	}
	return err
}

// emitDecisions enriches the live wave's decision events with the reference
// instance's optimal labels and the measured/predicted errors of report
// steps, then emits them to the observer's trace sinks.
func (h *Harness) emitDecisions(res *Result, liveRes, refRes WaveResult) {
	if h.obs == nil || len(liveRes.Decisions) == 0 {
		return
	}
	for i := range liveRes.Decisions {
		ev := &liveRes.Decisions[i]
		if ev.StepIndex >= 0 && ev.StepIndex < len(refRes.Labels) {
			ev.OptimalLabel = refRes.Labels[ev.StepIndex]
		}
	}
	for _, id := range h.reportSteps {
		report := res.Reports[id]
		n := len(report.Measured)
		if n == 0 {
			continue
		}
		for i := range liveRes.Decisions {
			ev := &liveRes.Decisions[i]
			if ev.Step != string(id) {
				continue
			}
			ev.MeasuredEps = report.Measured[n-1]
			ev.PredictedEps = report.Predicted[n-1]
			ev.Violation = report.Violations[n-1]
			ev.EpsKnown = true
		}
	}
	for _, ev := range liveRes.Decisions {
		h.obs.EmitDecision(ev)
	}
}

// measure appends this wave's error measurements for every reported step.
// Measured is computed on the live information basis (§2.2: the cost of the
// changes missed in the step's data container): the deviation between the
// output the step would produce right now on its live inputs and the stale
// output it is actually serving. Upstream staleness is accounted to the
// upstream steps' own bounds, not double-counted here; the EndToEnd series
// retains the whole-pipeline divergence against the synchronous reference.
//
// Every step's figures are computed before any is appended: a pass that fails
// part-way leaves the series and the accumulators untouched.
func (h *Harness) measure(res *Result, liveRes WaveResult) error {
	type sample struct {
		measured, endToEnd float64
		degraded           bool
	}
	samples := make([]sample, len(h.reportSteps))
	next := make([]MeasurePersist, len(h.reportSteps))
	for i, id := range h.reportSteps {
		factory := h.live.ErrorFactory(id)
		refState := h.ref.OutputState(id)
		liveState := h.live.OutputState(id)

		fresh, err := h.live.HypotheticalOutput(id)
		if err != nil {
			return err
		}

		st := MeasurePersist{FreshPrev: fresh}
		if h.measures != nil {
			st = h.measures[i]
		}
		idx := h.live.GatedIndex(id)
		if idx >= 0 && liveRes.Executed[idx] {
			st.Accum = 0
		} else {
			st.Accum += metric.Evaluate(factory, fresh, st.FreshPrev)
		}
		st.FreshPrev = fresh
		next[i] = st

		samples[i] = sample{
			measured: metric.Evaluate(factory, fresh, liveState),
			endToEnd: metric.Evaluate(factory, refState, liveState),
			degraded: idx >= 0 && liveRes.Degraded[idx],
		}
	}
	h.measures = next
	for i, id := range h.reportSteps {
		s := samples[i]
		report := res.Reports[id]
		report.Measured = append(report.Measured, s.measured)
		report.Predicted = append(report.Predicted, next[i].Accum)
		report.EndToEnd = append(report.EndToEnd, s.endToEnd)
		report.Violations = append(report.Violations, s.measured > report.MaxError)
		report.Degraded = append(report.Degraded, s.degraded)
	}
	return nil
}
