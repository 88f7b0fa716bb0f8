package cluster

// Per-shard circuit breakers. A breaker tracks one shard's transport health
// from the client's seat: consecutive transport-level failures trip it open,
// an open breaker fast-fails operations without touching the network, and
// after a cooldown — counted in operations, not wall time, so runs replay
// deterministically — a single half-open trial decides between closing and
// re-opening with a doubled cooldown. Application-level responses, including
// fencing rejections, count as successes: the server answered, so the
// transport is healthy; the breaker guards reachability, not correctness.
//
// Determinism: cooldowns carry jitter drawn from a per-shard rand source
// seeded from Config.Seed, so two clients with the same seed and the same
// failure sequence trip, cool and close identically — the property the
// partition chaos suite asserts by comparing counters across reruns.

import (
	"fmt"
	mrand "math/rand"

	"smartflux/internal/obs"
)

// Breaker tuning: breakerThreshold consecutive transport failures trip a
// breaker open; breakerCooldown is the base open-state cooldown in
// operations, doubling per failed trial up to maxBreakerBackoff × the base.
const (
	breakerThreshold  = 5
	breakerCooldown   = 16
	maxBreakerBackoff = 8
)

// Breaker states, exported to the smartflux_breaker_state gauge.
const (
	breakerClosed   = 0
	breakerOpen     = 1
	breakerHalfOpen = 2
)

// breaker is one shard's circuit breaker. Methods are not self-locking:
// the owning Client calls them under its own mutex, which also keeps the
// rand draws ordered.
type breaker struct {
	rng *mrand.Rand // per-shard seeded jitter source

	state   int // breakerClosed / breakerOpen / breakerHalfOpen
	fails   int // consecutive transport failures while closed
	wait    int // operations remaining before open → half-open
	backoff int // cooldown multiplier, doubling per failed trial

	stateGauge *obs.Gauge // nil-safe when uninstrumented
	opens      *obs.Counter
	fastFails  *obs.Counter
}

// newBreaker builds shard's breaker from the client config. The jitter
// source derives from the client seed and the shard index (golden-ratio
// scramble) so shards jitter independently but reproducibly.
func newBreaker(cfg Config, shard int) *breaker {
	b := &breaker{
		rng:     mrand.New(mrand.NewSource(cfg.Seed ^ int64(uint64(shard+1)*0x9E3779B97F4A7C15))),
		backoff: 1,
	}
	if cfg.Obs != nil {
		b.stateGauge = cfg.Obs.Gauge(fmt.Sprintf("smartflux_breaker_state{shard=%q}", fmt.Sprint(shard)))
		b.opens = cfg.Obs.Counter(fmt.Sprintf("smartflux_breaker_opens_total{shard=%q}", fmt.Sprint(shard)))
		b.fastFails = cfg.Obs.Counter(fmt.Sprintf("smartflux_breaker_fastfail_total{shard=%q}", fmt.Sprint(shard)))
	}
	return b
}

// setState moves the breaker and mirrors the state to the gauge.
func (b *breaker) setState(s int) {
	b.state = s
	if b.stateGauge != nil {
		b.stateGauge.Set(float64(s))
	}
}

// allow reports whether the next operation may touch the network. While
// open it burns one cooldown tick per refused operation; when the cooldown
// is spent the breaker half-opens and the current operation becomes the
// trial.
func (b *breaker) allow() bool {
	switch b.state {
	case breakerOpen:
		b.wait--
		if b.wait > 0 {
			b.fastFails.Inc() // nil-safe no-op when uninstrumented
			return false
		}
		b.setState(breakerHalfOpen)
		return true
	case breakerHalfOpen:
		// One trial at a time; concurrent operations fast-fail until the
		// in-flight trial settles the state.
		b.fastFails.Inc()
		return false
	default:
		return true
	}
}

// onSuccess records a server response (any application-level outcome):
// the transport works, so the breaker closes and the backoff resets.
func (b *breaker) onSuccess() {
	b.fails = 0
	b.backoff = 1
	if b.state != breakerClosed {
		b.setState(breakerClosed)
	}
}

// onFailure records a transport-level failure and reports whether this one
// tripped the breaker open. A failed half-open trial re-opens with a doubled
// (capped) cooldown.
func (b *breaker) onFailure() (tripped bool) {
	switch b.state {
	case breakerClosed:
		b.fails++
		if b.fails < breakerThreshold {
			return false
		}
	case breakerHalfOpen:
		if b.backoff < maxBreakerBackoff {
			b.backoff *= 2
		}
	default:
		return false
	}
	b.open()
	return true
}

// open trips the breaker: cooldown = backoff × base, plus seeded jitter of
// up to a quarter of the base so same-seed runs stagger identically.
func (b *breaker) open() {
	b.fails = 0
	b.wait = b.backoff*breakerCooldown + b.rng.Intn(breakerCooldown/4+1)
	b.setState(breakerOpen)
	b.opens.Inc() // nil-safe no-op when uninstrumented
}

// reset returns the breaker to closed with a fresh backoff — a promotion
// changed the primary this breaker was guarding, so its history is moot.
func (b *breaker) reset() {
	b.fails = 0
	b.backoff = 1
	b.wait = 0
	if b.state != breakerClosed {
		b.setState(breakerClosed)
	}
}
