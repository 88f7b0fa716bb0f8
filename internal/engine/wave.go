package engine

// The wave loop. The goroutine that called RunWave walks the steps once, in
// topological order, and finishes each before it reaches the next: a source
// or zero-tolerance step runs (once its predecessors have produced output); a
// gated step has its inputs observed, is put to the decider and, if told to,
// runs. So the decider sees the impact vector fill in step by step, every
// step reads what its predecessors wrote this wave, and the store's logical
// clock advances in the same order on every run.
//
// Errors: the walk stops at the first step that fails, and RunWave reports
// that step's error; no later step starts, so none runs on stale input.

import (
	"time"

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
		waveStart = time.Now()
	}
	ctx := &workflow.Context{Wave: wave, Store: in.store}
	waveSp := in.waveSpan(wave)

	var err error
	for _, st := range in.states {
		sp := in.stepSpan(waveSp, st, wave)
		switch {
		case st.step.Gated():
			err = in.runGated(ctx, d, st, sp, &res, tracing)
		case st.step.Source || in.predecessorsReady(st):
			err = in.execute(ctx, st, wave, sp)
			sp.EndErr(err)
		default:
			sp.SetSkipped(true)
			sp.End()
		}
		if err != nil {
			break
		}
	}

	for _, st := range in.states {
		if st.lastExec == wave {
			res.TotalExecutions++
			if st.step.Gated() {
				res.GatedExecutions++
			}
		}
	}
	waveSp.EndErr(err)
	if err != nil {
		return res, err
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

// runGated observes a gated step's inputs, refreshes the impact vector and
// asks the decider. A step told to run is executed (or degraded), then its
// optimal label is simulated and its baselines committed. It ends sp.
func (in *Instance) runGated(ctx *workflow.Context, d Decider, st *stepState, sp *obs.Span, res *WaveResult, tracing bool) error {
	idx := in.gatedIdx[st.step.ID]
	impact := in.observeImpact(st)
	in.impacts[idx] = impact
	res.Impacts[idx] = impact
	sp.SetIota(impact)

	ready := in.predecessorsReady(st)
	verdict, decNanos := in.decide(d, res.Wave, idx, ready)
	ev := in.traceDecision(res, d, st.step, idx, impact, ready, verdict, decNanos, tracing)
	if !ready || !verdict {
		sp.SetSkipped(true)
		sp.End()
		return nil
	}

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
