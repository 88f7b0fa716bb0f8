package engine

// The wave scheduler. One coordinator — the goroutine that called RunWave —
// walks the steps in topological order. For a gated step it does the part
// that must be sequential itself: wait for the step's wait set, observe ι,
// ask the decider, trace the decision. At Parallelism 1 it also runs every
// step, in order. Above 1 a step's work goes to a goroutine only where it can
// overlap something; work the coordinator would only park on, it runs itself
// (the help-first rule of task-parallel runtimes):
//
//   - A gated step told to run is run by the coordinator when the next gated
//     step in the order waits on it, or when no gated step follows
//     (Instance.inline). Otherwise it runs on a goroutine while the walk
//     moves on: Linear Road's 3a and 3b overlap the coordinator's 3c.
//   - A source or zero-tolerance step takes no decision, so it gets a
//     goroutine at wave start that waits for its own wait set: a branch never
//     queues behind the coordinator's wait for an unrelated gated step that
//     happens to sort before it. When the walk reaches the step and its wait
//     set is already settled, the coordinator claims the step and runs it
//     instead. The claim is a CAS; whoever wins it runs and settles the
//     position, and the other party does nothing.
//
// Results do not depend on the parallelism:
//
//   - Decision order. Only the coordinator writes in.impacts and consults the
//     decider, one gated step at a time, so full-vector deciders (the learned
//     Predictor) see the impact vector evolve the same way at every
//     Parallelism.
//   - Data order. Work on a step starts only after its wait set is settled:
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
// Deadlock freedom: a wait set names only earlier positions. Each of those is
// either a gated step, which the coordinator settles in order — runs, hands
// to a goroutine, skips, or, once the wave is doomed, holds back — or a
// no-decision step, whose goroutine exists before anyone waits. Once that
// goroutine's wait set is settled it either wins the claim and runs the step
// or finds that the coordinator did; the coordinator claims only a step
// whose wait set is settled, so it never waits inside a claim. Either way the
// position is settled exactly once. A pool slot is held only around actual
// work, never while waiting, so the earliest unsettled position can always
// proceed.
//
// Errors: once a step fails, no step with it in its wait set starts (nor,
// transitively, any step waiting on one of those), the coordinator stops at
// the first position past the failure, running work drains, and RunWave
// reports the first error in topological order — the step a Parallelism-1 run
// fails at. What still differs above 1: independent steps that were already
// running when the failure happened run to completion, so their writes may
// be in the store (RunWave rolls back instance state, not the store;
// DESIGN.md §2). Store timestamps across *different* tables may also
// interleave differently; per-cell version order is preserved.
//
// Spans: a no-decision step's span opens at wave start above Parallelism 1,
// whoever runs it, and a gated step's when the coordinator reaches it; above
// Parallelism 1 the end of waiting on the wait set is marked as the span's
// wait prefix, at 1 there is none.

import (
	"sync"
	"sync/atomic"
	"time"

	"smartflux/internal/obs"
	"smartflux/internal/workflow"
)

// position is one step's slot in a wave, indexed like in.order.
type position struct {
	// done is closed once the position is settled; nil at Parallelism 1,
	// where every earlier position is settled by the time anyone could ask.
	done chan struct{}
	// err is the step's failure or, for a step that never started, the
	// failure that held it back.
	err error
	// sp is a no-decision step's span.
	sp *obs.Span
	// claimed is won by the one party that runs a no-decision step above
	// Parallelism 1: the coordinator's walk or the step's own goroutine.
	claimed atomic.Bool
}

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
		waveStart = time.Now()
	}
	ctx := &workflow.Context{Wave: wave, Store: in.store}
	waveSp := in.waveSpan(wave)

	// The one place the wave path looks at the parallelism. A pool of one is
	// the calling goroutine itself: work runs inline, every earlier position
	// is settled when the walk reaches the next, and every wait is a no-op.
	pooled := in.par > 1

	n := len(in.order)
	pos := make([]position, n)
	if pooled {
		for i := range pos {
			pos[i].done = make(chan struct{})
		}
	}
	// failedAt is the lowest position that has failed or been held back so
	// far, n while there is none.
	var failedAt atomic.Int64
	failedAt.Store(int64(n))
	var wg sync.WaitGroup

	// settle records position i's outcome and releases whoever waits on it.
	settle := func(i int, err error) {
		pos[i].err = err
		if err != nil {
			for f := failedAt.Load(); int64(i) < f && !failedAt.CompareAndSwap(f, int64(i)); f = failedAt.Load() {
			}
		}
		if pos[i].done != nil {
			close(pos[i].done)
		}
	}
	// await blocks until every position in i's wait set is settled and marks
	// the end of sp's wait prefix. If a member failed or was held back, so is
	// i: sp ends as skipped with that error.
	await := func(i int, sp *obs.Span) error {
		var err error
		for _, j := range in.waitIdx[i] {
			if pos[j].done != nil {
				<-pos[j].done
			}
			if err == nil {
				err = pos[j].err
			}
		}
		if pooled {
			sp.MarkWait()
		}
		if err != nil {
			sp.SetSkipped(true)
			sp.EndErr(err)
		}
		return err
	}
	// settled reports, without waiting, whether i's wait set is settled.
	settled := func(i int) bool {
		for _, j := range in.waitIdx[i] {
			select {
			case <-pos[j].done:
			default:
				return false
			}
		}
		return true
	}
	// run is the work of position i, a source or zero-tolerance step. It
	// takes no decision, so all of it may overlap. Its span opens before any
	// waiting and await marks the wait boundary, so dur − wait is the step's
	// execute time — the quantity critical-path analysis sums along wait_for
	// edges.
	run := func(i int) error {
		st, sp := in.states[i], pos[i].sp
		if err := await(i, sp); err != nil {
			return err
		}
		if !st.step.Source && !in.predecessorsReady(st) {
			sp.SetSkipped(true)
			sp.End()
			return nil
		}
		in.pool <- struct{}{}
		err := in.execute(ctx, st, wave, sp)
		<-in.pool
		sp.EndErr(err)
		return err
	}
	if pooled {
		// Each step that takes no decision gets a goroutine now, which waits
		// for the step's wait set and runs it unless the walk claimed it
		// first: independent branches overlap whatever their place in the
		// order.
		for i, st := range in.states {
			if st.step.Gated() {
				continue
			}
			pos[i].sp = in.stepSpan(waveSp, st, i, wave)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, j := range in.waitIdx[i] {
					<-pos[j].done
				}
				if pos[i].claimed.CompareAndSwap(false, true) {
					settle(i, run(i))
				}
			}()
		}
	}

	// The walk stops at the first position past a failure: everything before
	// it has been dealt with, so the lowest failed position — the one
	// reported — is the one a Parallelism-1 run fails at.
	i := 0
	for ; i < n && int64(i) <= failedAt.Load(); i++ {
		st := in.states[i]
		if !st.step.Gated() {
			if !pooled {
				pos[i].sp = in.stepSpan(waveSp, st, i, wave)
			}
			if !pooled || settled(i) && pos[i].claimed.CompareAndSwap(false, true) {
				settle(i, run(i))
			}
			continue
		}
		sp := in.stepSpan(waveSp, st, i, wave)
		if await(i, sp) != nil {
			break
		}
		idx := in.gatedIdx[st.step.ID]
		// Observe the (possibly unchanged) input containers and refresh the
		// impact vector before deciding.
		impact := in.observeImpact(st)
		in.impacts[idx] = impact
		res.Impacts[idx] = impact
		sp.SetIota(impact)

		ready := in.predecessorsReady(st)
		verdict, decNanos := in.decide(d, wave, idx, ready)
		ev := in.traceDecision(&res, d, st.step, idx, impact, ready, verdict, decNanos, tracing)
		if !ready || !verdict {
			sp.SetSkipped(true)
			sp.End()
			settle(i, nil)
			continue
		}
		if !pooled || in.inline[i] {
			settle(i, in.runGated(ctx, st, sp, &res, idx, ev))
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			settle(i, in.runGated(ctx, st, sp, &res, idx, ev))
		}(i)
	}
	// A doomed wave: the gated steps the walk did not get to are held back,
	// and so — through await — is every started step waiting on one of them.
	for ; i < n; i++ {
		if in.states[i].step.Gated() {
			settle(i, pos[failedAt.Load()].err)
		}
	}
	wg.Wait()

	var firstErr error
	for i, st := range in.states {
		if firstErr == nil {
			firstErr = pos[i].err
		}
		if st.lastExec == wave {
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
		ob.waveDur.Observe(time.Since(waveStart).Seconds())
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
func (in *Instance) runGated(ctx *workflow.Context, st *stepState, sp *obs.Span, res *WaveResult, idx int, ev *obs.DecisionEvent) error {
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
	in.simulateAndCommit(st, res, idx, ev)
	sp.SetEps(res.SimErrors[idx])
	sp.End()
	return nil
}
