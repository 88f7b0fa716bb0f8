package engine

// The wave scheduler. One coordinator — the goroutine that called RunWave —
// walks the steps in topological order. For a gated step it does the part
// that must be sequential itself: wait for the step's wait set, observe ι,
// ask the decider, trace the decision. The part that may overlap — running a
// processor and the bookkeeping behind it — is handed to dispatch, which at
// Parallelism 1 runs it inline and above 1 starts a goroutine on the
// semaphore-bounded pool. Results do not depend on which:
//
//   - Decision order. Only the coordinator writes in.impacts and consults the
//     decider, one gated step at a time, so full-vector deciders (the learned
//     Predictor) see the impact vector evolve the same way at every
//     Parallelism.
//   - Data order. Work on a step starts only after its wait set has finished:
//     its DAG predecessors (every producer of an overlapping input container
//     is one by construction, see workflow.Finalize) plus any earlier-in-order
//     step writing an overlapping output container, which keeps per-cell
//     version history deterministic under write-write sharing.
//   - Result order. Per-step outputs land in pre-indexed WaveResult slots;
//     trace events are appended only by the coordinator into a slice
//     pre-allocated to the gated-step count (appends never reallocate, so
//     event pointers held by workers stay valid); executions are counted in
//     topological order after the barrier.
//
// Deadlock freedom: a wait set names only earlier positions, all of which
// were dispatched before the coordinator or a worker waits on them, and a
// pool slot is held only around actual work — never while waiting — so the
// earliest unfinished position can always run.
//
// Errors: once a step fails, no step with it in its wait set starts (nor,
// transitively, any step waiting on one of those), the coordinator dispatches
// nothing further, running work drains, and RunWave reports the first error
// in topological order — the step a Parallelism-1 run blames. What still
// differs above 1: independent steps that were already dispatched when the
// failure happened run to completion, so their writes may be in the store
// (RunWave rolls back instance state, not the store; DESIGN.md §10). Store
// timestamps across *different* tables may also interleave differently;
// per-cell version order is preserved.

import (
	"sync"
	"sync/atomic"
	"time"

	"smartflux/internal/metric"
	"smartflux/internal/obs"
	"smartflux/internal/workflow"
)

// runWave is the wave loop behind RunWave.
func (in *Instance) runWave(d Decider) (WaveResult, error) {
	wave := in.wave
	res := newWaveResult(wave, len(in.gated))

	ob := in.obs
	tracing := ob != nil && ob.o.Tracing()
	if tracing {
		res.Decisions = make([]obs.DecisionEvent, 0, len(in.gated))
	}
	var waveStart time.Time
	if ob != nil {
		waveStart = time.Now() //sflint:ignore nondeterm wave-latency metric only; never feeds results
	}
	ctx := &workflow.Context{Wave: wave, Store: in.store}
	waveSp := in.waveSpan(wave)

	// Per position: done[i] is closed when dispatched work has finished (nil
	// when it ran inline or nothing was dispatched), errs[i] is its failure —
	// for a step that never started, the failure that held it back.
	done := make([]chan struct{}, len(in.order))
	errs := make([]error, len(in.order))
	var failed atomic.Bool
	var wg sync.WaitGroup

	// await blocks until every position in i's wait set has finished, marking
	// the end of sp's wait prefix if it had to. If a member failed or was
	// held back, so is i: sp ends as skipped with that error.
	await := func(i int, sp *obs.Span) error {
		var waited bool
		var err error
		for _, j := range in.waitIdx[i] {
			if done[j] != nil {
				<-done[j]
				waited = true
			}
			if err == nil {
				err = errs[j]
			}
		}
		if waited {
			sp.MarkWait()
		}
		if err != nil {
			sp.SetSkipped(true)
			sp.EndErr(err)
		}
		return err
	}
	// dispatch runs the overlappable part of position i: inline at
	// Parallelism 1, on a pool goroutine otherwise. It is the only place the
	// wave path looks at the parallelism — a pool of one is the calling
	// goroutine itself, for which every earlier position is already complete
	// and every wait a no-op.
	dispatch := func(i int, work func() error) {
		run := func() {
			if errs[i] = work(); errs[i] != nil {
				failed.Store(true)
			}
		}
		if in.par == 1 {
			run()
			return
		}
		done[i] = make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done[i])
			run()
		}()
	}

	for i, id := range in.order {
		if failed.Load() {
			break
		}
		st := in.states[id]
		// The step span opens before any waiting and await marks the wait
		// boundary, so dur − wait is the step's execute time — the quantity
		// critical-path analysis sums along wait_for edges.
		sp := in.stepSpan(waveSp, st, i, wave)
		if !st.step.Gated() {
			// A source or zero-tolerance step takes no decision: all of it
			// may overlap.
			dispatch(i, func() error {
				if err := await(i, sp); err != nil {
					return err
				}
				if !st.step.Source && !in.predecessorsReady(id) {
					sp.SetSkipped(true)
					sp.End()
					return nil
				}
				in.pool <- struct{}{}
				err := in.execute(ctx, st, wave, sp)
				<-in.pool
				sp.EndErr(err)
				return err
			})
			continue
		}
		if await(i, sp) != nil {
			break
		}
		idx := in.gatedIdx[id]
		// Observe the (possibly unchanged) input containers and refresh the
		// impact vector before deciding.
		impact, inputStates := in.observeImpact(st)
		in.impacts[idx] = impact
		res.Impacts[idx] = impact
		sp.SetIota(impact)

		ready := in.predecessorsReady(id)
		verdict, decNanos := in.decide(d, wave, idx, ready)
		ev := in.traceDecision(&res, d, st.step, idx, impact, ready, verdict, decNanos, tracing)
		if !ready || !verdict {
			sp.SetSkipped(true)
			sp.End()
			continue
		}
		dispatch(i, func() error { return in.runGated(ctx, st, sp, &res, idx, inputStates, ev) })
	}
	wg.Wait()

	var firstErr error
	for i, id := range in.order {
		if firstErr == nil {
			firstErr = errs[i]
		}
		if st := in.states[id]; st.lastExecWave == wave {
			res.TotalExecutions++
			if st.step.Gated() {
				res.GatedExecutions++
			}
		}
	}
	waveSp.EndErr(firstErr)
	if firstErr != nil {
		return res, firstErr
	}
	if ob != nil {
		ob.waves.Inc()
		ob.waveDur.Observe(time.Since(waveStart).Seconds()) //sflint:ignore nondeterm wave-latency metric only; never feeds results
		// A Harness defers emission to enrich the events first.
		if !ob.deferEmit {
			for _, ev := range res.Decisions {
				ob.o.EmitDecision(ev)
			}
		}
	}
	in.wave++
	return res, nil
}

// runGated is the overlappable part of a gated step the decider said to run:
// execute (or degrade), then simulate the optimal label and commit baselines.
// It touches only the step's own trackers, result slots and trace event.
func (in *Instance) runGated(ctx *workflow.Context, st *stepState, sp *obs.Span, res *WaveResult, idx int, inputStates []metric.State, ev *obs.DecisionEvent) error {
	in.pool <- struct{}{}
	defer func() { <-in.pool }()
	degraded, err := in.executeDegradable(ctx, st, res.Wave, sp)
	if degraded {
		// Forced skip: outputs are rolled back, Executed stays false, and the
		// shadow error keeps accumulating exactly as for a decider-chosen
		// skip; successors proceed against the step's old outputs.
		res.Degraded[idx] = true
		if ev != nil {
			ev.Degraded = true
		}
		sp.SetDegraded(true)
		sp.EndErr(err)
		in.obs.countDegraded()
		return nil
	}
	if err != nil {
		sp.EndErr(err)
		return err
	}
	res.Executed[idx] = true
	if ev != nil {
		ev.Executed = true
	}
	in.simulateAndCommit(st, inputStates, res, idx, ev)
	sp.SetEps(res.SimErrors[idx])
	sp.End()
	return nil
}
