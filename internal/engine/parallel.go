package engine

// Parallel wave execution. RunWave with Parallelism > 1 runs each step of a
// wave in its own goroutine on a semaphore-bounded worker pool, while a
// single coordinator (the calling goroutine) takes every triggering decision
// strictly in topological order. The result is bit-identical to the
// sequential engine:
//
//   - Decision order. Full-vector deciders (the learned Predictor consumes
//     the whole impact vector) observe in.impacts evolving exactly as in the
//     sequential walk, because only the coordinator updates it, one gated
//     step at a time, in topological order.
//   - Data order. A step's goroutine starts its work only after the done
//     channels of its wait set have closed: its DAG predecessors (every
//     producer of an overlapping input container is a predecessor by
//     construction, see workflow.Finalize) plus any earlier-in-order step
//     writing an overlapping output container, which keeps per-cell version
//     history deterministic under write-write sharing.
//   - Result order. Per-step outputs land in pre-indexed WaveResult slots;
//     trace events are appended only by the coordinator into a slice
//     pre-allocated to the gated-step count (appends never reallocate, so
//     event pointers held by workers stay valid) and emitted after the wave
//     barrier.
//
// Deadlock freedom is by induction over the topological order: a step's wait
// set references only earlier order positions, and the coordinator answers
// gated steps in that same order, so whenever the coordinator blocks on step
// i every j < i can run to completion. The semaphore is held only around
// actual work (snapshot, execute, simulate) — never while blocking on a
// channel — so pool slots always free up.
//
// Divergence on error: the sequential engine aborts mid-wave on the first
// processor error, while the parallel engine lets the wave drain and returns
// the first error in topological order. Store timestamps across *different*
// tables may also interleave differently; per-cell version order is
// preserved.

import (
	"sync"
	"time"

	"smartflux/internal/obs"
	"smartflux/internal/workflow"
)

// gatedObservation is a worker's report to the coordinator: the freshly
// observed combined input impact and the triggering precondition.
type gatedObservation struct {
	impact float64
	ready  bool
}

// gatedVerdict is the coordinator's answer: whether to execute, and the
// step's trace event (nil when tracing is off) for the worker to enrich.
type gatedVerdict struct {
	run bool
	ev  *obs.DecisionEvent
}

// stepOutcome collects what a worker did, aggregated after the wave barrier
// in topological order so counters match the sequential engine.
type stepOutcome struct {
	executed bool
	gated    bool
	degraded bool
	err      error
}

// runWaveParallel is the Parallelism > 1 wave loop. See the package comment
// at the top of this file for the scheduling scheme and its guarantees.
func (in *Instance) runWaveParallel(d Decider) (WaveResult, error) {
	wave := in.wave
	res := newWaveResult(wave, len(in.gated))

	ob := in.obs
	tracing := ob != nil && ob.o.Tracing()
	if tracing {
		// Capacity covers every gated step: coordinator appends never
		// reallocate, so event pointers handed to workers stay valid.
		res.Decisions = make([]obs.DecisionEvent, 0, len(in.gated))
	}
	var waveStart time.Time
	if ob != nil {
		waveStart = time.Now() //sflint:ignore nondeterm wave-latency metric only; never feeds results
	}

	ctx := &workflow.Context{Wave: wave, Store: in.store}

	n := len(in.order)
	done := make([]chan struct{}, n)
	obsCh := make([]chan gatedObservation, n)
	verCh := make([]chan gatedVerdict, n)
	for i, id := range in.order {
		done[i] = make(chan struct{})
		if in.states[id].step.Gated() {
			obsCh[i] = make(chan gatedObservation, 1)
			verCh[i] = make(chan gatedVerdict, 1)
		}
	}
	outcomes := make([]stepOutcome, n)
	sem := make(chan struct{}, in.par)
	waveSp := in.waveSpan(wave)

	var wg sync.WaitGroup
	for i := range in.order {
		st := in.states[in.order[i]]
		wg.Add(1)
		go func(i int, st *stepState) {
			defer wg.Done()
			defer close(done[i])
			// The step span opens before the wait loop and marks the wait
			// boundary after it, so dur − wait is the step's execute time —
			// the quantity critical-path analysis sums along wait_for edges.
			stepSp := in.stepSpan(waveSp, st, i, wave)
			for _, j := range in.waitIdx[i] {
				<-done[j]
			}
			stepSp.MarkWait()
			step := st.step
			switch {
			case step.Source, !step.Gated():
				if !step.Source && !in.predecessorsReady(step.ID) {
					stepSp.SetSkipped(true)
					stepSp.End()
					return
				}
				sem <- struct{}{}
				err := in.execute(ctx, st, wave, stepSp)
				<-sem
				stepSp.EndErr(err)
				outcomes[i] = stepOutcome{executed: err == nil, err: err}
			default:
				ready := in.predecessorsReady(step.ID)
				sem <- struct{}{}
				impact, inputStates := in.observeImpact(st)
				<-sem
				stepSp.SetIota(impact)
				obsCh[i] <- gatedObservation{impact: impact, ready: ready}
				v := <-verCh[i]
				if !v.run {
					stepSp.SetSkipped(true)
					stepSp.End()
					return
				}
				sem <- struct{}{}
				degraded, err := in.executeDegradable(ctx, st, wave, stepSp)
				if err != nil {
					<-sem
					if degraded {
						// Forced skip: outputs already rolled back, the
						// step is simply not executed this wave.
						// Successors waiting on done[i] proceed against
						// its old outputs, exactly as after a
						// decider-chosen skip.
						idx := in.gatedIdx[step.ID]
						res.Degraded[idx] = true
						if v.ev != nil {
							v.ev.Degraded = true
						}
						stepSp.SetDegraded(true)
						stepSp.EndErr(err)
						outcomes[i] = stepOutcome{gated: true, degraded: true}
						return
					}
					stepSp.EndErr(err)
					outcomes[i] = stepOutcome{gated: true, err: err}
					return
				}
				idx := in.gatedIdx[step.ID]
				res.Executed[idx] = true
				if v.ev != nil {
					v.ev.Executed = true
				}
				in.simulateAndCommit(st, inputStates, &res, idx, v.ev)
				stepSp.SetEps(res.SimErrors[idx])
				<-sem
				stepSp.End()
				outcomes[i] = stepOutcome{executed: true, gated: true}
			}
		}(i, st)
	}

	// Coordinator: take every triggering decision in topological order.
	// Workers at earlier positions have already received their verdicts,
	// so blocking on obsCh[i] cannot deadlock.
	for i, id := range in.order {
		st := in.states[id]
		if !st.step.Gated() {
			continue
		}
		idx := in.gatedIdx[id]
		o := <-obsCh[i]
		in.impacts[idx] = o.impact
		res.Impacts[idx] = o.impact
		verdict, decNanos := in.decide(d, ob, wave, idx, o.ready)
		ev := in.traceDecision(&res, d, st.step, idx, o.impact, o.ready, verdict, decNanos, tracing)
		verCh[i] <- gatedVerdict{run: o.ready && verdict, ev: ev}
	}
	wg.Wait()

	var firstErr error
	for i := range outcomes {
		oc := &outcomes[i]
		if oc.err != nil && firstErr == nil {
			firstErr = oc.err
		}
		if oc.degraded {
			ob.countDegraded()
		}
		if oc.executed {
			res.TotalExecutions++
			if oc.gated {
				res.GatedExecutions++
			}
		}
	}
	if firstErr != nil {
		waveSp.EndErr(firstErr)
		return res, firstErr
	}
	waveSp.End()
	in.finishWave(&res, ob, waveStart)
	return res, nil
}
