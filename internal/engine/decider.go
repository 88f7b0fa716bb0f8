// Package engine executes SmartFlux workflows wave by wave. An Instance
// drives one workflow over one store under a triggering Decider; a Harness
// pairs a policy-driven live instance with a synchronous reference instance
// to measure true output deviations, resource savings and bound-compliance
// confidence — the quantities reported in §5 of the paper.
package engine

import "fmt"

// Decider chooses, for each wave, whether a QoD-gated step executes. stepIdx
// indexes the workflow's gated steps in topological order; impacts is the
// current vector of per-gated-step input impacts (entries for steps later in
// the topological order hold their last observed value).
type Decider interface {
	// Name identifies the policy in reports.
	Name() string
	// Decide returns true when the step should execute this wave.
	Decide(wave, stepIdx int, impacts []float64) bool
}

// DeciderFunc adapts a function to the Decider interface.
type DeciderFunc struct {
	// PolicyName is returned by Name.
	PolicyName string
	// Fn is invoked by Decide.
	Fn func(wave, stepIdx int, impacts []float64) bool
}

// Name implements Decider.
func (d DeciderFunc) Name() string { return d.PolicyName }

// Decide implements Decider.
func (d DeciderFunc) Decide(wave, stepIdx int, impacts []float64) bool {
	return d.Fn(wave, stepIdx, impacts)
}

var _ Decider = DeciderFunc{}

// Sync is the Synchronous Data-Flow policy: every step executes every wave.
// It is the paper's baseline ("sync" in Figure 12).
type Sync struct{}

// Name implements Decider.
func (Sync) Name() string { return "sync" }

// Decide implements Decider.
func (Sync) Decide(int, int, []float64) bool { return true }

var _ Decider = Sync{}

// Random skips or executes steps uniformly at random ("random" in
// Figure 11): executing and not executing have equal probability unless P is
// overridden. A verdict is a function of (seed, wave, stepIdx) alone, so a
// retried wave and a resumed run draw exactly what the uninterrupted run drew.
type Random struct {
	p    float64
	seed int64
}

// NewRandom creates a Random policy with execution probability p (0 < p < 1;
// the paper uses 0.5; anything else, NaN included, is coerced to 0.5) and a
// deterministic seed.
func NewRandom(p float64, seed int64) *Random {
	if !(p > 0 && p < 1) {
		p = 0.5
	}
	return &Random{p: p, seed: seed}
}

// Name implements Decider.
func (r *Random) Name() string { return "random" }

// Decide implements Decider: a uniform draw in [0, 1) from the top 53 bits
// of a SplitMix64 hash of (seed, wave, stepIdx), compared with p.
func (r *Random) Decide(wave, stepIdx int, _ []float64) bool {
	z := mix64(mix64(mix64(uint64(r.seed))^uint64(wave)) ^ uint64(stepIdx))
	return float64(z>>11)/(1<<53) < r.p
}

// mix64 is one SplitMix64 step: x advanced by the golden-ratio increment,
// then finalized.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

var _ Decider = (*Random)(nil)

// Seq executes steps every Nth wave ("seqX" in Figure 11).
type Seq struct {
	// N is the execution period in waves.
	N int
}

// NewSeq creates a seq-N policy; N < 1 is coerced to 1 (equivalent to Sync).
func NewSeq(n int) Seq {
	if n < 1 {
		n = 1
	}
	return Seq{N: n}
}

// Name implements Decider.
func (s Seq) Name() string { return fmt.Sprintf("seq%d", s.N) }

// Decide implements Decider.
func (s Seq) Decide(wave, _ int, _ []float64) bool {
	return wave%s.N == s.N-1
}

var _ Decider = Seq{}

// Oracle replays the per-wave simulated-optimal labels produced by a
// synchronous reference instance: a step executes exactly when its true
// accumulated error would exceed maxε. This is the "optimal" series of
// Figure 12 (a perfect, fully-accurate predictor). The harness refreshes
// Labels before each live wave.
type Oracle struct {
	// Labels holds the current wave's per-gated-step 0/1 decisions.
	Labels []int
}

// Name implements Decider.
func (o *Oracle) Name() string { return "oracle" }

// Decide implements Decider.
func (o *Oracle) Decide(_, stepIdx int, _ []float64) bool {
	if stepIdx < 0 || stepIdx >= len(o.Labels) {
		return true
	}
	return o.Labels[stepIdx] == 1
}

var _ Decider = (*Oracle)(nil)
