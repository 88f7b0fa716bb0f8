package engine

// Step-level resilience and wave-boundary recovery. Three mechanisms, all
// configured through InstanceConfig and documented in DESIGN.md §2:
//
//   - runProc bounds one processor execution with StepTimeout.
//   - executeDegradable turns an exhausted retry budget on a gated step into
//     a forced skip (outputs rolled back, wave carries on) when DegradeGated
//     is set.
//   - RunWave marks the instance at wave start and rewinds it to the mark
//     when the wave fails (persist.go), so a failed wave leaves every
//     tracker and the per-step bookkeeping exactly as they were.

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"smartflux/internal/kvstore"
	"smartflux/internal/obs"
	"smartflux/internal/workflow"
)

// ErrStepTimeout marks a step execution attempt exceeding
// InstanceConfig.StepTimeout; matchable with errors.Is through the engine's
// wrapping.
var ErrStepTimeout = errors.New("engine: step execution timed out")

// runProc runs one processor attempt, bounded by the configured step
// timeout. On timeout the processor goroutine is abandoned — Go cannot kill
// it — and keeps running to completion in the background; its buffered done
// channel lets it exit without leaking. Late writes from an abandoned
// attempt race only with the step's own retry, which re-derives the same
// values for deterministic processors, so the latest cell versions converge
// either way. This is why processors take each batch (kvstore.GetBatch) or
// grid buffer (Table.PutFloatRows) per call rather than keep one across
// calls: a straggler and its retry then never build their writes in the
// same memory.
func (in *Instance) runProc(ctx *workflow.Context, st *stepState) error {
	if in.cfg.StepTimeout <= 0 {
		return st.step.Proc.Process(ctx)
	}
	done := make(chan error, 1)
	go func() { done <- st.step.Proc.Process(ctx) }()
	select {
	case err := <-done:
		return err
	case <-time.After(in.cfg.StepTimeout):
		return fmt.Errorf("%w after %v", ErrStepTimeout, in.cfg.StepTimeout)
	}
}

// backoff sleeps out the delay before retry number attempt (0-based):
// RetryBackoff doubling per attempt, capped at 64×, plus jitter of up to
// half the delay from the instance's seeded source.
func (in *Instance) backoff(attempt int) {
	base := in.cfg.RetryBackoff
	if base <= 0 {
		return
	}
	if attempt > 6 {
		attempt = 6
	}
	d := base << uint(attempt)
	in.retryMu.Lock()
	d += time.Duration(in.jitter.Int63n(int64(d)/2 + 1))
	in.retryMu.Unlock()
	time.Sleep(d)
}

// executeDegradable executes a step with the retry budget and — for gated
// steps under DegradeGated — converts terminal failure into a forced skip:
// the step's output tables are restored to their pre-attempt contents and
// degraded=true is returned alongside the error. The caller decides what a
// degraded failure means (the wave loops mark the step Degraded and carry
// on). Non-gated steps and instances without DegradeGated report
// degraded=false and the error propagates as a wave failure.
func (in *Instance) executeDegradable(ctx *workflow.Context, st *stepState, wave int, sp *obs.Span) (degraded bool, err error) {
	if !in.cfg.DegradeGated || !st.step.Gated() {
		return false, in.execute(ctx, st, wave, sp)
	}
	snap, err := in.saveOutputs(st.step)
	if err != nil {
		return false, err
	}
	if err := in.execute(ctx, st, wave, sp); err != nil {
		if rerr := in.rollbackOutputs(snap); rerr != nil {
			// A failed rollback means the outputs may hold partial writes:
			// that is corruption, not degradation — fail the wave.
			return false, errors.Join(err, fmt.Errorf("degrade rollback %q: %w", st.step.ID, rerr))
		}
		return true, err
	}
	return false, nil
}

// savedTable is one output table's latest contents, as Scan returned them:
// in (row, column) order.
type savedTable struct {
	t     *kvstore.Table
	cells []kvstore.Cell
}

// saveOutputs snapshots the latest value of every cell in every output table
// of step, each table once and in name order, for exact restoration after a
// hypothetical run or a degraded execution. Missing tables are created in
// the step's output order.
func (in *Instance) saveOutputs(step *workflow.Step) ([]savedTable, error) {
	snap := make([]savedTable, 0, len(step.Outputs))
	for _, out := range step.Outputs {
		t, err := in.store.EnsureTable(out.Table, kvstore.TableOptions{})
		if err != nil {
			return nil, err
		}
		snap = append(snap, savedTable{t: t})
	}
	slices.SortFunc(snap, func(a, b savedTable) int { return strings.Compare(a.t.Name(), b.t.Name()) })
	snap = slices.CompactFunc(snap, func(a, b savedTable) bool { return a.t == b.t })
	for i := range snap {
		snap[i].cells = snap[i].t.Scan(kvstore.ScanOptions{})
	}
	return snap, nil
}

// rollbackOutputs restores every saved table, in name order, to its saved
// contents with one batch, built in one merge of the table's current cells
// and its saved ones: for each current cell in key order, a cell introduced
// since is deleted and a changed one gets its old value back; then every
// saved cell that vanished is put back, in key order. Restoration appends
// versions rather than rewinding history, so the latest values — everything
// metrics and processors read — match the snapshot exactly while the version
// log keeps a trace of the undone writes. The batch is a function of the two
// scans alone, so two runs rolling back the same wave write byte-identical
// logs and WALs.
func (in *Instance) rollbackOutputs(snap []savedTable) error {
	for _, s := range snap {
		current := s.t.Scan(kvstore.ScanOptions{})
		batch := kvstore.GetBatch().Grow(len(current))
		saved, vanished := s.cells, []kvstore.Cell(nil)
		for _, c := range current {
			for len(saved) > 0 && keyLess(saved[0], c) {
				vanished, saved = append(vanished, saved[0]), saved[1:]
			}
			if len(saved) == 0 || keyLess(c, saved[0]) {
				batch.Delete(c.Row, c.Column)
				continue
			}
			if string(saved[0].Version.Value) != string(c.Version.Value) {
				batch.Put(c.Row, c.Column, saved[0].Version.Value)
			}
			saved = saved[1:]
		}
		for _, c := range append(vanished, saved...) {
			batch.Put(c.Row, c.Column, c.Version.Value)
		}
		err := s.t.Apply(batch)
		batch.Release()
		if err != nil {
			return err
		}
	}
	return nil
}

// keyLess reports whether cell a sorts before cell b in Scan's (row, column)
// order.
func keyLess(a, b kvstore.Cell) bool {
	return a.Row < b.Row || a.Row == b.Row && a.Column < b.Column
}
