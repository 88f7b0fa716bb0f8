package cluster

// Health checking. Two modes share one prober:
//
//   - Reactive (always on): withShard consults the prober when an operation
//     fails at the transport level — the suspect primary gets a burst of
//     pings with seeded exponential backoff, and only if every ping fails is
//     the replica promoted. Transient blips heal; dead shards fail over in
//     one operation's latency.
//   - Proactive (StartHealthLoop): a background goroutine pings every
//     primary on an interval and promotes dead ones before any operation
//     trips over them. The loop has an explicit shutdown path (Close / stop)
//     so it never leaks.
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
	defaultProbeRetries      = 3
	defaultProbeBackoff      = 10 * time.Millisecond
	probeDialTimeout         = 500 * time.Millisecond
	defaultFailoverThreshold = 2
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

// healthLoop is the background prober: one goroutine, stopped by closing
// closeCh and waiting on wg.
type healthLoop struct {
	closeCh chan struct{}
	wg      sync.WaitGroup
}

func (h *healthLoop) stop() {
	close(h.closeCh)
	h.wg.Wait()
}

// StartHealthLoop begins proactive probing: every interval, each shard's
// primary is pinged and dead ones are failed over without waiting for an
// operation to trip. Returns false if a loop is already running or the
// client is closed. Close stops the loop.
func (c *Client) StartHealthLoop(interval time.Duration) bool {
	c.mu.Lock()
	if c.closed || c.health != nil {
		c.mu.Unlock()
		return false
	}
	h := &healthLoop{closeCh: make(chan struct{})}
	c.health = h
	c.mu.Unlock()

	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-h.closeCh:
				return
			case <-t.C:
				c.probeAll()
			}
		}
	}()
	return true
}

// probeAll sweeps every shard once. A failed ping only increments the
// shard's consecutive-failure count; failover runs when the streak reaches
// Config.FailoverThreshold (default 2) — one slow or dropped sweep is a
// blip, and promoting on it would flap the cluster through an epoch bump,
// a breaker reset and a map push for nothing. Any successful ping clears
// the streak.
func (c *Client) probeAll() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	threshold := c.cfg.FailoverThreshold
	if threshold <= 0 {
		threshold = defaultFailoverThreshold
	}
	type target struct {
		shard int
		addr  string
		ver   int
	}
	targets := make([]target, len(c.m.Shards))
	for i, s := range c.m.Shards {
		targets[i] = target{shard: i, addr: s.Primary, ver: c.m.Version}
	}
	c.mu.Unlock()
	for _, t := range targets {
		if c.probe.ping(t.addr) == nil {
			c.mu.Lock()
			c.probeFails[t.shard] = 0
			c.mu.Unlock()
			continue
		}
		c.mu.Lock()
		c.probeFails[t.shard]++
		suspect := c.probeFails[t.shard] >= threshold
		c.mu.Unlock()
		if suspect {
			// failover re-probes with the full retry budget and re-checks
			// the map version, so a concurrent promotion is respected; the
			// streak resets inside promote on success.
			c.failover(t.shard, t.addr, t.ver)
		}
	}
}
