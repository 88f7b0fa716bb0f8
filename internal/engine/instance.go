package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"time"

	"smartflux/internal/kvstore"
	"smartflux/internal/metric"
	"smartflux/internal/obs"
	"smartflux/internal/workflow"
)

// InstanceConfig configures an engine instance.
type InstanceConfig struct {
	// TrainingMode selects the baseline-commit discipline for input-impact
	// trackers. In training mode (used by synchronous reference runs) the
	// impact baseline follows the *simulated* execution schedule — it
	// resets when the simulated error crosses maxε — so logged ι values
	// accumulate exactly as the classifier will later see them. Outside
	// training mode the baseline follows actual executions.
	TrainingMode bool
	// StepTimeout bounds each processor execution; zero means unbounded.
	// A timed-out attempt fails with ErrStepTimeout; the abandoned
	// processor goroutine is left to finish in the background (see
	// DESIGN.md §2 for why its late writes are harmless for
	// deterministic processors).
	StepTimeout time.Duration
	// StepRetries is how many extra attempts a failed or timed-out step
	// execution gets within one wave before the failure propagates.
	StepRetries int
	// RetryBackoff is the base delay before a step retry, doubling per
	// attempt (capped at 64×) with seeded jitter of up to half the delay.
	// Zero retries immediately.
	RetryBackoff time.Duration
	// RetrySeed seeds the backoff jitter source, keeping retry timing
	// deterministic for a given failure sequence.
	RetrySeed int64
	// DegradeGated turns an exhausted retry budget on a *gated* step into
	// a forced skip instead of a wave failure: the step's partial output
	// writes are rolled back, Executed stays false, and the wave carries
	// on. The skipped execution's error keeps accumulating on the step's
	// ε accounting exactly as a decider-chosen skip would (§2.2), so
	// degradation is visible in the predicted-error series and decision
	// trace rather than silently eating accuracy. Source and
	// zero-tolerance steps never degrade — their output is a correctness
	// precondition for successors, so their failures always propagate.
	DegradeGated bool
}

// stepState holds the per-step runtime bookkeeping of the Monitoring
// component: impact trackers over input containers and shadow error trackers
// over output containers.
type stepState struct {
	step *workflow.Step

	impactTrackers []*metric.Tracker
	impactCombine  metric.Combiner
	errorTrackers  []*metric.Tracker
	errorFactory   metric.Factory
	impactVals     []float64 // this wave's per-input impacts, for impactCombine

	// preds holds the positions in Instance.order of the step's DAG
	// predecessors.
	preds []int

	lastExec, markLastExec int // latest executed wave (-1 before any), now and at the latest mark
}

// WaveResult reports what happened during one wave of an instance.
type WaveResult struct {
	// Wave is the 0-based wave index.
	Wave int
	// Impacts is the per-gated-step input-impact vector observed this
	// wave (topological order over gated steps).
	Impacts []float64
	// Executed flags which gated steps executed this wave.
	Executed []bool
	// Degraded flags gated steps that were forcibly skipped this wave: the
	// decider said execute, the retry budget ran out, and the step's
	// outputs were rolled back (InstanceConfig.DegradeGated). A degraded
	// step is not Executed.
	Degraded []bool
	// Labels holds the simulated optimal decisions (1 = simulated error
	// exceeded maxε). Only meaningful for synchronously driven instances;
	// entries are -1 when the step did not execute and no fresh label
	// could be simulated.
	Labels []int
	// SimErrors holds the per-gated-step simulated (shadow) output error
	// observed this wave, before any baseline reset — the ε of the (ι, ε)
	// correlation pairs of Figure 7. Entries are NaN-free zeros when a
	// step did not execute.
	SimErrors []float64
	// GatedExecutions counts gated steps executed this wave.
	GatedExecutions int
	// TotalExecutions counts all steps executed this wave.
	TotalExecutions int
	// Decisions holds one trace event per gated step. It is populated
	// only when an observer with a trace sink is attached (see
	// Instance.Instrument); a Harness enriches and emits these after
	// measuring, a standalone Instance emits them at the end of RunWave.
	Decisions []obs.DecisionEvent
}

// Instance binds a finalized workflow to a store and executes it wave by
// wave under a Decider.
type Instance struct {
	wf    *workflow.Workflow
	store *kvstore.Store
	cfg   InstanceConfig

	order    []workflow.StepID
	gated    []workflow.StepID
	gatedIdx map[workflow.StepID]int
	// states[i] is the bookkeeping of order[i]; posOf maps a step ID to i.
	states []*stepState
	posOf  map[workflow.StepID]int

	impacts []float64 // last-known impacts, by gated index
	wave    int
	// markImpacts and markWave are impacts and wave at the latest mark.
	markImpacts []float64
	markWave    int

	// snaps caches the latest scan of every container the workflow
	// references, across waves (see containerSnapshot). The map itself is
	// fixed at construction; each entry carries its own lock.
	snaps map[workflow.Container]*containerSnapshot

	// jitter draws retry backoff jitter, in the order the retries happen.
	jitter *rand.Rand

	obs *instanceObs // nil when no observer is attached
	// runSpan is the run-level span anchor created by Instrument when the
	// observer has span sinks. It is an unemitted ID root — never Ended —
	// that wave/step/attempt spans hang off so their path-like IDs
	// (run/w3/classify/a0) stay deterministic; nil disables span emission
	// throughout the wave loops.
	runSpan *obs.Span
}

// instanceObs carries the pre-resolved instruments of an attached observer,
// so the wave loop pays no registry lookups. deferEmit is set by a Harness,
// which enriches the wave's decision events with measured errors and the
// reference instance's optimal labels before emitting them itself.
type instanceObs struct {
	o           *obs.Observer
	waves       *obs.Counter
	execs       *obs.Counter
	skips       *obs.Counter
	stepRetries *obs.Counter
	timeouts    *obs.Counter
	degraded    *obs.Counter
	recoveries  *obs.Counter
	snapReused  *obs.Counter
	snapScanned *obs.Counter
	waveDur     *obs.Histogram
	decideDur   *obs.Histogram
	deferEmit   bool
}

// Nil-safe counter hooks: resilience events fire in instances without an
// observer too, so every call site goes through these.

func (ob *instanceObs) countRetry() {
	if ob != nil {
		ob.stepRetries.Inc()
	}
}

func (ob *instanceObs) countTimeout() {
	if ob != nil {
		ob.timeouts.Inc()
	}
}

func (ob *instanceObs) countDegraded() {
	if ob != nil {
		ob.degraded.Inc()
	}
}

func (ob *instanceObs) countRecovery() {
	if ob != nil {
		ob.recoveries.Inc()
	}
}

func (ob *instanceObs) countSnapshot(reused bool) {
	if ob == nil {
		return
	}
	if reused {
		ob.snapReused.Inc()
	} else {
		ob.snapScanned.Inc()
	}
}

// Instrument attaches an observer to the instance: per-wave duration and
// per-decision latency histograms, gated exec/skip counters, and — when
// the observer has a trace sink — one decision event per (wave, gated
// step). Passing nil detaches; with no observer attached every hook is a
// no-op.
func (in *Instance) Instrument(o *obs.Observer) {
	if o == nil {
		in.obs = nil
		in.runSpan = nil
		return
	}
	in.runSpan = o.RootSpan("run", "run", "engine")
	in.obs = &instanceObs{
		o:           o,
		waves:       o.Counter("smartflux_engine_waves_total"),
		execs:       o.Counter(`smartflux_engine_decisions_total{verdict="exec"}`),
		skips:       o.Counter(`smartflux_engine_decisions_total{verdict="skip"}`),
		stepRetries: o.Counter("smartflux_engine_step_retries_total"),
		timeouts:    o.Counter("smartflux_engine_step_timeouts_total"),
		degraded:    o.Counter("smartflux_engine_steps_degraded_total"),
		recoveries:  o.Counter("smartflux_engine_wave_recoveries_total"),
		snapReused:  o.Counter(`smartflux_engine_snapshots_total{result="reused"}`),
		snapScanned: o.Counter(`smartflux_engine_snapshots_total{result="scanned"}`),
		waveDur:     o.Histogram("smartflux_engine_wave_duration_seconds"),
		decideDur:   o.Histogram("smartflux_engine_decision_latency_seconds"),
	}
}

// Span helpers. Wave, step and attempt spans hang off the run anchor with
// IDs derived purely from (wave, step ID, attempt), so traces from two runs
// of the same workload align node for node even though timings differ. All
// helpers return nil — and allocate nothing — when spanning is off.

// waveSpan starts wave's span under the run anchor, or returns nil.
func (in *Instance) waveSpan(wave int) *obs.Span {
	if in.runSpan == nil {
		return nil
	}
	sp := in.runSpan.ChildKey("w"+strconv.Itoa(wave), "wave", "engine")
	sp.SetWave(wave)
	return sp
}

// stepSpan starts a step's span under its wave span, recording the wave,
// the step ID and the spans of its DAG predecessors, whose completion gates
// its start — the edges critical-path analysis walks.
func (in *Instance) stepSpan(waveSp *obs.Span, st *stepState, wave int) *obs.Span {
	if waveSp == nil {
		return nil
	}
	sp := waveSp.ChildKey(string(st.step.ID), "step", "engine")
	sp.SetWave(wave)
	sp.SetStep(string(st.step.ID))
	if len(st.preds) > 0 {
		ids := make([]string, len(st.preds))
		for k, j := range st.preds {
			ids[k] = waveSp.ID() + "/" + string(in.order[j])
		}
		sp.SetWaitFor(ids)
	}
	return sp
}

// attemptSpan starts one execution attempt's span under its step span.
func attemptSpan(sp *obs.Span, attempt int) *obs.Span {
	if sp == nil {
		return nil
	}
	att := sp.ChildKey("a"+strconv.Itoa(attempt), "attempt", "engine")
	att.SetAttempt(attempt)
	return att
}

// NewInstance creates an instance over wf and store. The workflow must be
// finalized.
func NewInstance(wf *workflow.Workflow, store *kvstore.Store, cfg InstanceConfig) (*Instance, error) {
	order, err := wf.Order()
	if err != nil {
		return nil, err
	}
	gated, err := wf.GatedSteps()
	if err != nil {
		return nil, err
	}
	in := &Instance{
		wf:          wf,
		store:       store,
		cfg:         cfg,
		order:       order,
		gated:       gated,
		gatedIdx:    make(map[workflow.StepID]int, len(gated)),
		states:      make([]*stepState, len(order)),
		posOf:       make(map[workflow.StepID]int, len(order)),
		impacts:     make([]float64, len(gated)),
		markImpacts: make([]float64, len(gated)),
		jitter:      rand.New(rand.NewSource(cfg.RetrySeed)),
		snaps:       make(map[workflow.Container]*containerSnapshot),
	}
	for i, id := range gated {
		in.gatedIdx[id] = i
	}
	for i, id := range order {
		step, err := wf.Step(id)
		if err != nil {
			return nil, err
		}
		in.posOf[id] = i
		st := &stepState{step: step, lastExec: -1}
		// Predecessors come earlier in order, so their positions are known.
		for _, pred := range wf.Predecessors(id) {
			st.preds = append(st.preds, in.posOf[pred])
		}
		slices.Sort(st.preds)
		for _, c := range step.Inputs {
			in.snaps[c] = &containerSnapshot{}
		}
		for _, c := range step.Outputs {
			in.snaps[c] = &containerSnapshot{}
		}
		if step.Gated() {
			impactFactory, err := metric.Resolve(step.QoD.ImpactFunc)
			if err != nil {
				return nil, fmt.Errorf("step %q: %w", id, err)
			}
			errorFactory, err := metric.Resolve(step.QoD.ErrorFunc)
			if err != nil {
				return nil, fmt.Errorf("step %q: %w", id, err)
			}
			combiner, err := metric.ResolveCombiner(step.QoD.Combiner)
			if err != nil {
				return nil, fmt.Errorf("step %q: %w", id, err)
			}
			st.impactCombine = combiner
			st.errorFactory = errorFactory
			st.impactVals = make([]float64, len(step.Inputs))
			for range step.Inputs {
				st.impactTrackers = append(st.impactTrackers, metric.NewTracker(impactFactory, step.QoD.Mode))
			}
			for range step.Outputs {
				st.errorTrackers = append(st.errorTrackers, metric.NewTracker(errorFactory, step.QoD.Mode))
			}
		}
		in.states[i] = st
	}
	return in, nil
}

// Workflow returns the underlying workflow.
func (in *Instance) Workflow() *workflow.Workflow { return in.wf }

// Store returns the instance's store.
func (in *Instance) Store() *kvstore.Store { return in.store }

// GatedSteps returns the gated step IDs in topological order.
func (in *Instance) GatedSteps() []workflow.StepID {
	out := make([]workflow.StepID, len(in.gated))
	copy(out, in.gated)
	return out
}

// GatedIndex returns the gated-step index of id, or -1.
func (in *Instance) GatedIndex(id workflow.StepID) int {
	if i, ok := in.gatedIdx[id]; ok {
		return i
	}
	return -1
}

// Wave returns the number of waves executed so far.
//
//sflint:ignore unused only bench/ calls it; bench/ is frozen until ROADMAP item 4, and item 13(b) deletes it after
func (in *Instance) Wave() int { return in.wave }

// state returns step id's bookkeeping, or nil for a step not in the workflow.
func (in *Instance) state(id workflow.StepID) *stepState {
	if i, ok := in.posOf[id]; ok {
		return in.states[i]
	}
	return nil
}

// containerSnapshot is the latest scan of one container, kept across waves.
// It is valid for as long as the store still resolves the container's table
// name to the same *Table and that table's mutation version has not moved —
// so a container nobody wrote since it was last observed is not rescanned,
// and nothing has to invalidate entries: executions, degraded-step rollbacks,
// hypothetical runs and failed waves all show up as a version change (or, for
// DropTable + recreate, a different table). A rescan refills state.Vals in
// place, so whoever keeps state copies it.
type containerSnapshot struct {
	table   *kvstore.Table
	version uint64
	state   metric.Columns
}

// readSnapshot runs read on the current state of c, one of the workflow's
// containers: the table is read only if it changed since the previous
// snapshot.
func (in *Instance) readSnapshot(c workflow.Container, read func(metric.Columns)) {
	e := in.snaps[c]
	if t, err := in.store.Table(c.Table); err != nil {
		e.table, e.state = nil, metric.Columns{Vals: e.state.Vals[:0]}
	} else {
		reused := e.table == t && e.version == t.Version()
		if !reused {
			e.table = t
			e.state, e.version = t.ScanColumns(kvstore.ScanOptions{ColumnPrefix: c.ColumnPrefix}, e.state.Vals)
		}
		in.obs.countSnapshot(reused)
	}
	read(e.state)
}

// observe folds c's current state into tr and returns the metric.
func (in *Instance) observe(c workflow.Container, tr *metric.Tracker) (v float64) {
	in.readSnapshot(c, func(state metric.Columns) { v = tr.ObserveColumns(state) })
	return v
}

// OutputState snapshots the numeric state of all output containers of id,
// merged under "table:row/column" keys in key order, into Columns of the
// caller's own. Where two outputs hold one key (two column prefixes of one
// table can overlap), the later output in declaration order gives its value.
func (in *Instance) OutputState(id workflow.StepID) metric.Columns {
	st := in.state(id)
	if st == nil {
		return metric.Columns{}
	}
	var merged metric.Columns
	for _, c := range st.step.Outputs {
		in.readSnapshot(c, func(state metric.Columns) {
			prefix := c.Table + ":"
			merged.Keys = slices.Grow(merged.Keys, state.Len())
			merged.Vals = slices.Grow(merged.Vals, state.Len())
			for k, key := range state.Keys {
				merged.Keys = append(merged.Keys, prefix+key)
				merged.Vals = append(merged.Vals, state.Vals[k])
			}
		})
	}
	return sortColumns(merged)
}

// sortColumns returns c with its elements in strictly increasing key order:
// c itself when they already are, which costs one pass; otherwise a stably
// sorted copy that keeps, where keys repeat, the last element of each run.
func sortColumns(c metric.Columns) metric.Columns {
	i := 1
	for i < len(c.Keys) && c.Keys[i-1] < c.Keys[i] {
		i++
	}
	if i >= len(c.Keys) {
		return c
	}
	order := make([]int, len(c.Keys))
	for k := range order {
		order[k] = k
	}
	slices.SortStableFunc(order, func(a, b int) int { return strings.Compare(c.Keys[a], c.Keys[b]) })
	out := metric.Columns{Keys: make([]string, 0, len(order)), Vals: make([]float64, 0, len(order))}
	for k, j := range order {
		if k+1 < len(order) && c.Keys[order[k+1]] == c.Keys[j] {
			continue
		}
		out.Keys = append(out.Keys, c.Keys[j])
		out.Vals = append(out.Vals, c.Vals[j])
	}
	return out
}

// ErrorFactory returns the error-metric factory of gated step id, or nil.
func (in *Instance) ErrorFactory(id workflow.StepID) metric.Factory {
	st := in.state(id)
	if st == nil {
		return nil
	}
	return st.errorFactory
}

// observeImpact folds a gated step's input containers into its impact
// trackers — through the snapshot cache, so a container is read once however
// many steps read it and not at all while nobody writes it — and returns the
// combined impact. simulateAndCommit commits what the trackers observed.
func (in *Instance) observeImpact(st *stepState) float64 {
	for i, c := range st.step.Inputs {
		st.impactVals[i] = in.observe(c, st.impactTrackers[i])
	}
	return st.impactCombine(st.impactVals)
}

// simulateAndCommit performs a gated step's post-execution bookkeeping: it
// simulates the optimal label against the shadow error baseline, records the
// simulated error and label into the result's pre-indexed slots, and applies
// the baseline-commit discipline to the impact trackers (see InstanceConfig)
// with the inputs as observed before the step ran.
func (in *Instance) simulateAndCommit(st *stepState, res *WaveResult, idx int, ev *obs.DecisionEvent) {
	worst := 0.0
	for i, c := range st.step.Outputs {
		if e := in.observe(c, st.errorTrackers[i]); e > worst {
			worst = e
		}
	}
	res.SimErrors[idx] = worst
	label := 0
	if worst > st.step.QoD.MaxError {
		label = 1
		for _, t := range st.errorTrackers {
			t.CommitObserved()
		}
	}
	res.Labels[idx] = label
	if ev != nil {
		ev.SimEps = worst
		ev.OptimalLabel = label
	}

	// The impact baseline follows actual executions, except in training
	// mode, where it follows the simulated schedule.
	if !in.cfg.TrainingMode || label == 1 {
		for _, t := range st.impactTrackers {
			t.CommitObserved()
		}
	}
}

// newWaveResult allocates one wave's result with unset labels.
func newWaveResult(wave, gated int) WaveResult {
	res := WaveResult{
		Wave:      wave,
		Impacts:   make([]float64, gated),
		Executed:  make([]bool, gated),
		Degraded:  make([]bool, gated),
		Labels:    make([]int, gated),
		SimErrors: make([]float64, gated),
	}
	for i := range res.Labels {
		res.Labels[i] = -1
	}
	return res
}

// RunWave executes one wave under the given decider and returns what
// happened. Source steps always run; zero-tolerance steps run whenever their
// predecessors have produced output at least once; gated steps consult the
// decider with the freshly observed input impacts. The calling goroutine
// runs the whole wave, one step at a time in topological order (wave.go).
// A failed wave leaves the instance in its pre-wave state: all trackers,
// per-step bookkeeping and the wave counter are rolled back, so callers can
// retry the wave or carry on as if it had not been attempted (store contents
// are not rolled back; see DESIGN.md §2 for why deterministic processors
// make that safe).
func (in *Instance) RunWave(d Decider) (WaveResult, error) {
	in.mark()
	return in.runMarked(d)
}

// runMarked is RunWave after mark: a failed wave rewinds the instance to the
// mark, which stays set, so a caller may run the wave again from it.
func (in *Instance) runMarked(d Decider) (WaveResult, error) {
	res, err := in.runWave(d)
	if err != nil {
		in.rewind()
		in.obs.countRecovery()
	}
	return res, err
}

// decide consults the decider for one gated step, timing the call and
// counting the verdict when an observer is attached. Unready steps are never
// presented to the decider.
func (in *Instance) decide(d Decider, wave, idx int, ready bool) (verdict bool, decNanos int64) {
	ob := in.obs
	if !ready {
		// Unready steps count as skips even though the decider never ran.
		if ob != nil {
			ob.skips.Inc()
		}
		return false, 0
	}
	if ob == nil {
		return d.Decide(wave, idx, in.impacts), 0
	}
	t0 := time.Now()
	verdict = d.Decide(wave, idx, in.impacts)
	decNanos = time.Since(t0).Nanoseconds()
	ob.decideDur.Observe(float64(decNanos) / 1e9)
	if verdict {
		ob.execs.Inc()
	} else {
		ob.skips.Inc()
	}
	return verdict, decNanos
}

// traceDecision appends one decision event to the wave result and returns a
// pointer to it, for the step's outcome, or nil when tracing is off.
func (in *Instance) traceDecision(res *WaveResult, d Decider, step *workflow.Step, idx int, impact float64, ready, verdict bool, decNanos int64, tracing bool) *obs.DecisionEvent {
	if !tracing {
		return nil
	}
	predicted := -1
	if ready {
		predicted = 0
		if verdict {
			predicted = 1
		}
	}
	res.Decisions = append(res.Decisions, obs.DecisionEvent{
		Type:           "decision",
		Wave:           res.Wave,
		Step:           string(step.ID),
		StepIndex:      idx,
		Policy:         d.Name(),
		Impact:         impact,
		Impacts:        append([]float64(nil), in.impacts...),
		Ready:          ready,
		PredictedLabel: predicted,
		Verdict:        verdict,
		OptimalLabel:   -1,
		MaxEps:         step.QoD.MaxError,
		DecisionNanos:  decNanos,
	})
	return &res.Decisions[len(res.Decisions)-1]
}

// execute runs a step's processor under the retry budget (attempts) and
// updates its bookkeeping on success.
func (in *Instance) execute(ctx *workflow.Context, st *stepState, wave int, sp *obs.Span) error {
	if err := in.attempts(ctx, st, sp, nil); err != nil {
		return fmt.Errorf("step %q wave %d: %w", st.step.ID, wave, err)
	}
	st.lastExec = wave
	return nil
}

// attempts runs a step's processor under the configured timeout and retry
// budget, and returns the last attempt's error once the budget is spent.
// After each failed attempt it runs undo, when not nil, and backs off
// (exponential with seeded jitter) before the next; a failed undo ends the
// loop with both errors. Each attempt gets a child span of sp (nil
// disables); retries are charged to sp itself.
func (in *Instance) attempts(ctx *workflow.Context, st *stepState, sp *obs.Span, undo func() error) error {
	var err error
	for attempt := 0; attempt <= in.cfg.StepRetries; attempt++ {
		if attempt > 0 {
			in.obs.countRetry()
			sp.SetRetries(attempt)
			in.backoff(attempt - 1)
		}
		att := attemptSpan(sp, attempt)
		err = in.runProc(ctx, st)
		att.EndErr(err)
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrStepTimeout) {
			in.obs.countTimeout()
		}
		if undo != nil {
			if uerr := undo(); uerr != nil {
				return errors.Join(err, uerr)
			}
		}
	}
	return err
}

// HypotheticalOutput runs step id's processor against the current store
// state, captures the resulting output-container state, and rolls every
// output table back to its prior contents. It answers "what would this
// step's output be if it executed right now?" — the quantity behind the
// §2.2 output error (the cost of the input changes the step has not yet
// processed). Processors of non-source steps must not depend on the wave
// number for this to be exact.
func (in *Instance) HypotheticalOutput(id workflow.StepID) (metric.Columns, error) {
	st := in.state(id)
	if st == nil {
		return metric.Columns{}, fmt.Errorf("engine: unknown step %q", id)
	}
	wave := in.wave - 1
	if wave < 0 {
		wave = 0
	}
	snap, err := in.saveOutputs(st.step)
	if err != nil {
		return metric.Columns{}, err
	}
	undo := func() error {
		if err := in.rollbackOutputs(snap); err != nil {
			return fmt.Errorf("hypothetical rollback %q: %w", id, err)
		}
		return nil
	}
	// Hypothetical runs share the step timeout and retry budget: a
	// transient store fault while measuring is as recoverable as one while
	// executing. Every attempt — failed or not — is rolled back so the
	// outputs keep their stale contents; a rollback restores the saved
	// values exactly, so one snapshot serves every attempt.
	ctx := &workflow.Context{Wave: wave, Store: in.store}
	if err := in.attempts(ctx, st, nil, undo); err != nil {
		return metric.Columns{}, fmt.Errorf("hypothetical %q: %w", id, err)
	}
	fresh := in.OutputState(id)
	if err := undo(); err != nil {
		return metric.Columns{}, err
	}
	return fresh, nil
}

// predecessorsReady reports whether all of st's upstream steps have executed
// at least once (the triggering precondition of §2).
func (in *Instance) predecessorsReady(st *stepState) bool {
	for _, j := range st.preds {
		if in.states[j].lastExec < 0 {
			return false
		}
	}
	return true
}
