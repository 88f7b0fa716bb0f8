// Package ndcorpus is the corpus of the retired nondeterm analyzer, kept as
// detflow's regression test. It sits under the fake import path
// smartflux/internal/engine/..., inside the wall-clock and global-rand
// scope. Each helper returns a source's value; detflow reports it where a
// same-package caller stores it.
package ndcorpus

import (
	"math/rand"
	"time"

	"smartflux/internal/kvstore"
)

// waveClock reads the wall clock on a result path.
func waveClock() int64 {
	return time.Now().UnixNano()
}

// decisionAge measures elapsed time against the wall clock.
func decisionAge(t0 time.Time) float64 {
	return time.Since(t0).Seconds()
}

// pickStep draws from the shared global RNG.
func pickStep(n int) int {
	return rand.Intn(n)
}

// jitter draws a float from the shared global RNG.
func jitter() float64 {
	return rand.Float64()
}

// seededDraw is the sanctioned pattern: an explicit per-component seed.
func seededDraw(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64()
}

// epoch constructs a fixed time; no clock is read.
func epoch() time.Time {
	return time.Unix(0, 0).UTC()
}

// record stores each helper's result: the four source-backed ones are
// reported at the store write, the seeded draw and the fixed time are not.
func record(t *kvstore.Table, t0 time.Time) {
	t.PutFloat("r", "clock", float64(waveClock())) // want `kvstore write t.PutFloat: tainted by wall-clock`
	t.PutFloat("r", "age", decisionAge(t0))        // want `kvstore write t.PutFloat: tainted by wall-clock`
	t.PutFloat("r", "step", float64(pickStep(4)))  // want `kvstore write t.PutFloat: tainted by global-rand`
	t.PutFloat("r", "jitter", jitter())            // want `kvstore write t.PutFloat: tainted by global-rand`
	t.PutFloat("r", "seeded", seededDraw(7))
	t.PutFloat("r", "epoch", float64(epoch().Unix()))
}
