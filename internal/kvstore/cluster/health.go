package cluster

// Health checking is on demand: withShard consults the prober when an
// operation fails at the transport level. The suspect primary gets a burst
// of pings with seeded exponential backoff, and only if every ping fails is
// the replica promoted. Transient blips heal; dead shards fail over in one
// operation's latency.
//
// Probing is deterministic given the seed and the failure sequence: the
// backoff jitter comes from a private seeded source, and probes reuse the
// client config's Dial hook, so a fault-injected partition that kills data
// traffic kills probes identically.

import (
	mrand "math/rand"
	"sync"
	"time"

	"smartflux/internal/kvstore/kvnet"
)

// Probe defaults; Config overrides.
const (
	defaultProbeRetries = 3
	defaultProbeBackoff = 10 * time.Millisecond
	probeDialTimeout    = 500 * time.Millisecond
)

// prober decides whether an address is dead.
type prober struct {
	cfg     kvnet.ClientConfig // stripped-down: one dial, one ping, no retries
	retries int
	backoff time.Duration

	mu  sync.Mutex
	rng *mrand.Rand
}

// newProber builds the prober from a client config.
func newProber(cfg Config) *prober {
	pc := kvnet.ClientConfig{
		Dial:         cfg.Client.Dial,
		DialTimeout:  cfg.Client.DialTimeout,
		ReadTimeout:  cfg.Client.ReadTimeout,
		WriteTimeout: cfg.Client.WriteTimeout,
	}
	if pc.DialTimeout <= 0 {
		pc.DialTimeout = probeDialTimeout
	}
	if pc.ReadTimeout <= 0 {
		pc.ReadTimeout = probeDialTimeout
	}
	retries := cfg.ProbeRetries
	if retries <= 0 {
		retries = defaultProbeRetries
	}
	backoff := cfg.ProbeBackoff
	if backoff <= 0 {
		backoff = defaultProbeBackoff
	}
	return &prober{
		cfg:     pc,
		retries: retries,
		backoff: backoff,
		rng:     mrand.New(mrand.NewSource(cfg.Seed)),
	}
}

// ping dials addr fresh and round-trips one OpPing frame.
func (p *prober) ping(addr string) error {
	cl, err := kvnet.DialConfig(addr, p.cfg)
	if err != nil {
		return err
	}
	defer func() { _ = cl.Close() }()
	return cl.Ping()
}

// dead reports whether addr failed every probe: 1 + retries pings, with
// seeded exponential backoff between attempts. Any successful ping clears
// the suspect immediately.
func (p *prober) dead(addr string) bool {
	for attempt := 0; attempt <= p.retries; attempt++ {
		if attempt > 0 {
			time.Sleep(p.delay(attempt - 1))
		}
		if p.ping(addr) == nil {
			return false
		}
	}
	return true
}

// delay is the seeded backoff before retry attempt (0-based).
func (p *prober) delay(attempt int) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return kvnet.RetryDelay(p.backoff, attempt, p.rng)
}
