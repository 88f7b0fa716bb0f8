package engine

// Step-level resilience and wave-boundary recovery. Three mechanisms, all
// configured through InstanceConfig and documented in DESIGN.md §10:
//
//   - runProc bounds one processor execution with StepTimeout.
//   - executeDegradable turns an exhausted retry budget on a gated step into
//     a forced skip (outputs rolled back, wave carries on) when DegradeGated
//     is set.
//   - RunWave takes the instance's persisted form (persist.go) at wave start
//     and restores it when the wave fails, so a failed wave leaves every
//     tracker and the per-step bookkeeping exactly as they were.

import (
	"errors"
	"fmt"
	"sort"
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

// cellKey addresses one cell within a table snapshot.
type cellKey struct{ row, col string }

// outputSnapshot captures the raw latest contents of a step's output tables,
// for exact restoration after a hypothetical run or a degraded execution.
type outputSnapshot struct {
	tables map[string]*kvstore.Table
	saved  map[string]map[cellKey][]byte
}

// saveOutputs snapshots the latest value of every cell in every output table
// of step (each table once, even when referenced by several containers).
func (in *Instance) saveOutputs(step *workflow.Step) (outputSnapshot, error) {
	snap := outputSnapshot{
		tables: make(map[string]*kvstore.Table, len(step.Outputs)),
		saved:  make(map[string]map[cellKey][]byte, len(step.Outputs)),
	}
	for _, out := range step.Outputs {
		if _, done := snap.saved[out.Table]; done {
			continue
		}
		t, err := in.store.EnsureTable(out.Table, kvstore.TableOptions{})
		if err != nil {
			return outputSnapshot{}, err
		}
		snap.tables[out.Table] = t
		cells := make(map[cellKey][]byte)
		for _, c := range t.Scan(kvstore.ScanOptions{}) {
			cells[cellKey{c.Row, c.Column}] = c.Version.Value
		}
		snap.saved[out.Table] = cells
	}
	return snap, nil
}

// rollbackOutputs restores every snapshotted table to its saved contents:
// saved cells get their old values back, cells introduced since are deleted.
// Restoration appends versions rather than rewinding history, so the latest
// values — everything metrics and processors read — match the snapshot
// exactly while the version log keeps a trace of the undone writes.
//
// Tables and vanished cells are restored in sorted order, never map order:
// the undo writes land in the version log and WAL, and two runs rolling back
// the same wave must produce byte-identical logs.
func (in *Instance) rollbackOutputs(snap outputSnapshot) error {
	names := make([]string, 0, len(snap.tables))
	for name := range snap.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := snap.tables[name]
		saved := snap.saved[name]
		current := t.Scan(kvstore.ScanOptions{})
		batch := kvstore.GetBatch().Grow(len(current))
		seen := make(map[cellKey]struct{}, len(current))
		for _, c := range current {
			key := cellKey{c.Row, c.Column}
			seen[key] = struct{}{}
			old, had := saved[key]
			switch {
			case !had:
				batch.Delete(c.Row, c.Column)
			case string(old) != string(c.Version.Value):
				batch.Put(c.Row, c.Column, old)
			}
		}
		vanished := make([]cellKey, 0, len(saved))
		for key := range saved {
			if _, still := seen[key]; !still {
				vanished = append(vanished, key)
			}
		}
		sort.Slice(vanished, func(i, j int) bool {
			if vanished[i].row != vanished[j].row {
				return vanished[i].row < vanished[j].row
			}
			return vanished[i].col < vanished[j].col
		})
		batch.Grow(len(vanished))
		for _, key := range vanished {
			batch.Put(key.row, key.col, saved[key])
		}
		err := t.Apply(batch)
		batch.Release()
		if err != nil {
			return err
		}
	}
	return nil
}
