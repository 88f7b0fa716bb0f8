// Package dfcorpus is the corpus for the detflow taint analyzer. It lives
// under the fake smartflux/internal/engine path because detflow's
// wall-clock and global-rand sources count only inside the determinism
// scope. Positives route
// wall-clock, global-rand and map-iteration-order taint into store writes,
// WAL payloads and decision-trace fields; negatives pin metrics-only clocks,
// seeded RNGs, sorted iteration and strong-update laundering as clean.
package dfcorpus

import (
	"math/rand"
	"sort"
	"time"

	"smartflux/internal/durable"
	"smartflux/internal/kvstore"
	"smartflux/internal/obs"
)

// --- positives -------------------------------------------------------------

// clockIntoPut stores a wall-clock reading: replaying the run cannot
// reproduce the value.
func clockIntoPut(t *kvstore.Table) error {
	now := time.Now().UnixNano()
	return t.Put("r", "c", []byte{byte(now)}) // want `nondeterministic value flows into kvstore write .* wall-clock`
}

// randIntoPutFloat stores a draw from the shared unseeded RNG.
func randIntoPutFloat(t *kvstore.Table) error {
	v := rand.Float64()
	return t.PutFloat("r", "c", v) // want `nondeterministic value flows into kvstore write .* global-rand`
}

// mapSumIntoPutFloat accumulates floats in map-iteration order and stores
// the order-dependent sum.
func mapSumIntoPutFloat(t *kvstore.Table, m map[string]float64) error {
	sum := 0.0
	for _, v := range m {
		sum += v
	}
	return t.PutFloat("r", "c", sum) // want `nondeterministic value flows into kvstore write .* map-order`
}

// clockIntoWAL commits a wall-clock-derived payload to the WAL.
func clockIntoWAL(m *durable.Manager, wave int) error {
	stamp := time.Now().String()
	return m.Commit(wave, []byte(stamp)) // want `nondeterministic value flows into WAL payload .* wall-clock`
}

// clockIntoTraceField assigns elapsed wall time into a result-bearing
// decision-trace field.
func clockIntoTraceField(ev *obs.DecisionEvent, t0 time.Time) {
	elapsed := time.Since(t0).Seconds()
	ev.SimEps = elapsed // want `nondeterministic value flows into decision-trace field .* wall-clock`
}

// clockIntoTraceLiteral builds a decision event with a tainted field value.
func clockIntoTraceLiteral(tr *obs.Tracer, wave int) {
	nanos := time.Now().UnixNano()
	ev := obs.DecisionEvent{
		Wave:   wave,
		SimEps: float64(nanos), // want `nondeterministic value flows into decision-trace field SimEps.* wall-clock`
	}
	tr.Emit(ev)
}

// putInMapRange commits writes in map-iteration order: even untainted
// per-key values reorder the WAL between runs.
func putInMapRange(t *kvstore.Table, m map[string][]byte) {
	for k, v := range m {
		t.Put(k, "c", v) // want `executes inside a range over a map`
	}
}

// randIntoGrid fills a grid write's buffer with draws from the shared
// unseeded RNG.
func randIntoGrid(t *kvstore.Table, rows, cols []string) error {
	return t.PutFloatRows(rows, cols, func(vals []float64) {
		for k := range vals {
			vals[k] = rand.Float64() // want `nondeterministic value flows into kvstore write t.PutFloatRows: .* global-rand`
		}
	})
}

// mapSumIntoGrid stores an order-dependent map sum through a grid write.
func mapSumIntoGrid(t *kvstore.Table, rows, cols []string, m map[string]float64) error {
	return t.PutFloatRows(rows, cols, func(vals []float64) {
		sum := 0.0
		for _, v := range m {
			sum += v
		}
		vals[0] = sum // want `nondeterministic value flows into kvstore write t.PutFloatRows: .* map-order`
	})
}

// gridInMapRange commits one grid per map key in iteration order.
func gridInMapRange(t *kvstore.Table, cols []string, m map[string][]string) {
	for _, rows := range m {
		t.PutFloatRows(rows, cols, func([]float64) {}) // want `executes inside a range over a map`
	}
}

// --- negatives -------------------------------------------------------------

// seededRandIntoGrid fills a grid from an explicitly seeded RNG.
func seededRandIntoGrid(t *kvstore.Table, rows, cols []string) error {
	rng := rand.New(rand.NewSource(7))
	return t.PutFloatRows(rows, cols, func(vals []float64) {
		for k := range vals {
			vals[k] = rng.Float64()
		}
	})
}

// clockForMetricsOnly reads the wall clock but the value never reaches a
// sink; detflow stays quiet.
func clockForMetricsOnly(t *kvstore.Table, data []byte) (time.Duration, error) {
	start := time.Now()
	err := t.Put("r", "c", data)
	return time.Since(start), err
}

// seededRandIntoPut draws from an explicitly seeded RNG: reproducible by
// construction.
func seededRandIntoPut(t *kvstore.Table) error {
	rng := rand.New(rand.NewSource(7))
	return t.PutFloat("r", "c", rng.Float64())
}

// sortedKeysLaunderOrder collects keys from a map range, sorts them, and
// writes in the sorted order: deterministic.
func sortedKeysLaunderOrder(t *kvstore.Table, m map[string][]byte) error {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := t.Put(k, "c", m[k]); err != nil {
			return err
		}
	}
	return nil
}

// strongUpdateLaunders overwrites the tainted value before the write.
func strongUpdateLaunders(t *kvstore.Table) error {
	x := time.Now().UnixNano()
	x = 42
	return t.Put("r", "c", []byte{byte(x)})
}

// decisionLatencyIsExempt fills DecisionNanos, the trace's one wall-clock
// field (the §5.3 decision latency), in both spellings.
func decisionLatencyIsExempt(tr *obs.Tracer, ev *obs.DecisionEvent, t0 time.Time) {
	ev.DecisionNanos = time.Since(t0).Nanoseconds()
	tr.Emit(obs.DecisionEvent{Wave: 1, DecisionNanos: time.Now().UnixNano()})
}

// intCountInMapRange accumulates an exact commutative count; storing it is
// order-independent and detflow's accumulation rule ignores int += 1.
func intCountInMapRange(t *kvstore.Table, m map[string]float64) error {
	n := 0
	for range m {
		n++
	}
	return t.Put("r", "c", []byte{byte(n)})
}
