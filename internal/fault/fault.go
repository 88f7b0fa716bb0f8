// Package fault is SmartFlux's deterministic fault-injection layer. It
// exists so the failure paths of the distributed mode — broken kvnet
// connections, slow or erroring store operations, hung steps — can be
// exercised by ordinary, reproducible tests instead of being trusted blind.
//
// An Injector evaluates a seeded Policy once per operation: every decision
// is drawn from a private rand.Source, so a given (Policy, operation
// sequence) always produces the same faults. Two interposition surfaces
// consume the decisions:
//
//   - OpHook: a func(op) error a caller runs before each operation it wants
//     to be able to fail, before touching any state — the write-ahead log's
//     crash seam, and processors driving the engine's step retry and
//     degradation paths in-process.
//   - Conn / Listener (conn.go): wrap net.Conn / net.Listener so kvnet
//     clients and servers see injected latency, I/O errors, disconnects and
//     blackholes at the wire level.
//
// The package is test-oriented but ships as production code: chaos suites,
// examples and benchmarks all build against it.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"smartflux/internal/obs"
)

// ErrInjected is the root of every injected operation error; test code
// matches it with errors.Is.
var ErrInjected = errors.New("fault: injected error")

// ErrDisconnected marks an injected connection teardown. It wraps
// ErrInjected, so errors.Is(err, ErrInjected) also holds.
var ErrDisconnected = fmt.Errorf("%w: injected disconnect", ErrInjected)

// ErrCrashed marks an injected process crash. Once a crash point fires, the
// injector stays crashed: every later operation fails with ErrCrashed too,
// modeling a dead process rather than a transient fault. Wraps ErrInjected.
var ErrCrashed = fmt.Errorf("%w: injected crash", ErrInjected)

// Crash is the error returned at the moment a crash point fires. TornBytes
// tells write-ahead-log interposition how many bytes of the in-flight record
// to persist before dying, modeling a torn write; 0 means the record is lost
// whole. It unwraps to ErrCrashed (and hence ErrInjected).
type Crash struct {
	TornBytes int
}

// Error implements error.
func (c *Crash) Error() string {
	if c.TornBytes > 0 {
		return fmt.Sprintf("fault: injected crash (torn after %d bytes)", c.TornBytes)
	}
	return "fault: injected crash"
}

// Unwrap makes errors.Is(err, ErrCrashed) and errors.Is(err, ErrInjected)
// hold for *Crash values.
func (c *Crash) Unwrap() error { return ErrCrashed }

// Torn reports the torn-write byte count. Consumers (internal/durable) match
// it through an errors.As interface so they need no import of this package.
func (c *Crash) Torn() int { return c.TornBytes }

// Policy describes what faults to inject and how often. The zero value
// injects nothing.
type Policy struct {
	// Seed drives every probabilistic decision. Two injectors with the same
	// seed presented with the same operation sequence inject identically.
	Seed int64

	// ErrorRate is the probability in [0, 1] that an operation fails with
	// ErrInjected.
	ErrorRate float64

	// LatencyRate is the probability in [0, 1] that an operation is delayed
	// by Latency before proceeding.
	LatencyRate float64
	// Latency is the injected delay (applied when the LatencyRate draw
	// fires).
	Latency time.Duration

	// DisconnectRate is the probability in [0, 1] that an operation tears
	// the connection down (conn wrappers close the underlying conn; the op
	// hook fails the op with ErrDisconnected).
	DisconnectRate float64
	// DisconnectAfter, when positive, forces exactly one disconnect at the
	// Nth eligible operation — a deterministic "kill the link mid-run".
	DisconnectAfter int

	// Blackhole makes conn writes vanish (reported as successful, never
	// delivered) and op-hook operations fail with ErrInjected. Reads on a
	// blackholed conn starve naturally and surface via read deadlines.
	Blackhole bool

	// Ops, when non-empty, restricts injection to the named operations.
	// Conn wrappers use "read" and "write"; op-hook callers name their own
	// operations (the chaos suite uses "get", "put", "scan", "apply",
	// "create_table").
	Ops map[string]bool

	// CrashPoints maps an operation name to the 1-based occurrence at which
	// the injector crashes: the Nth Decide for that op returns a *Crash
	// error and the injector turns permanently dead (every later operation
	// of any name fails with ErrCrashed). Occurrences are counted per op
	// name, independent of the Ops filter, and crash decisions consume no
	// randomness — adding a crash point does not perturb the probabilistic
	// fault sequence. The durability layer uses ops "wal_append" and
	// "snapshot".
	CrashPoints map[string]int
	// CrashTornBytes is carried on the *Crash error for "torn write"
	// modeling: how many bytes of the in-flight record survive the crash.
	// 0 means the record is lost whole.
	CrashTornBytes int

	// KillShardAddrs lists shard addresses eligible for a seeded kill.
	// KillShardAfter, when positive, partitions exactly one of them — the
	// victim picked deterministically by Seed — at the Nth eligible
	// operation (counted like DisconnectAfter, after the Ops filter). See
	// partition.go; Heal lifts the partition.
	KillShardAddrs []string
	KillShardAfter int
}

// Decision is the injector's verdict for one operation, in application
// order: wait Latency, then fail with Err (nil = proceed); Disconnect tells
// conn wrappers to also tear the transport down.
type Decision struct {
	Latency    time.Duration
	Err        error
	Disconnect bool
}

// Stats counts what an injector has done, for assertions without an
// observer.
type Stats struct {
	Ops            int // operations presented (after the Ops filter)
	Errors         int // ErrInjected failures
	Latencies      int // delayed operations
	Disconnects    int // injected disconnects
	Crashes        int // crash points fired (0 or 1; the injector dies crashing)
	Partitions     int // addresses partitioned (Partition calls + seeded kills)
	LinkPartitions int // directed links partitioned (PartitionLink calls)
}

// Injector evaluates a Policy operation by operation. It is safe for
// concurrent use; concurrent callers serialize on an internal lock so the
// decision sequence stays a pure function of arrival order.
type Injector struct {
	mu        sync.Mutex
	p         Policy
	rng       *rand.Rand
	stats     Stats
	opCounts  map[string]int   // per-op occurrence counts for crash points
	partIn    map[string]bool  // addresses whose inbound traffic is cut (partition.go)
	partOut   map[string]bool  // addresses whose outbound traffic is cut
	partLinks map[linkKey]bool // directed from→to links cut (partition.go)
	crashed   bool

	errs    *obs.Counter // nil when no observer is attached
	delays  *obs.Counter
	dropped *obs.Counter
}

// New creates an injector for the policy.
func New(p Policy) *Injector {
	return &Injector{p: p, rng: rand.New(rand.NewSource(p.Seed))}
}

// Instrument attaches an observer counting injected faults on
// smartflux_fault_injected_total{kind="error"|"latency"|"disconnect"}.
// Passing nil detaches.
func (i *Injector) Instrument(o *obs.Observer) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if o == nil {
		i.errs, i.delays, i.dropped = nil, nil, nil
		return
	}
	i.errs = o.Counter(`smartflux_fault_injected_total{kind="error"}`)
	i.delays = o.Counter(`smartflux_fault_injected_total{kind="latency"}`)
	i.dropped = o.Counter(`smartflux_fault_injected_total{kind="disconnect"}`)
}

// Stats returns a copy of the injection counters.
func (i *Injector) Stats() Stats {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.stats
}

// Decide evaluates the policy for one named operation. Filtered-out
// operations never consume randomness, so adding an op filter does not
// change the fault sequence seen by the remaining ops.
func (i *Injector) Decide(op string) Decision {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.crashed {
		return Decision{Err: ErrCrashed}
	}
	if n, ok := i.p.CrashPoints[op]; ok && n > 0 {
		if i.opCounts == nil {
			i.opCounts = make(map[string]int)
		}
		i.opCounts[op]++
		if i.opCounts[op] == n {
			i.crashed = true
			i.stats.Crashes++
			i.errs.Inc() // nil-safe no-op when uninstrumented
			return Decision{Err: &Crash{TornBytes: i.p.CrashTornBytes}}
		}
	}
	if len(i.p.Ops) > 0 && !i.p.Ops[op] {
		return Decision{}
	}
	i.stats.Ops++
	i.maybeKillShard()
	var d Decision
	if i.p.Latency > 0 && i.p.LatencyRate > 0 && i.rng.Float64() < i.p.LatencyRate {
		d.Latency = i.p.Latency
		i.stats.Latencies++
		i.delays.Inc() // nil-safe no-op when uninstrumented
	}
	switch {
	case i.p.DisconnectAfter > 0 && i.stats.Ops == i.p.DisconnectAfter:
		d.Disconnect = true
	case i.p.DisconnectRate > 0 && i.rng.Float64() < i.p.DisconnectRate:
		d.Disconnect = true
	}
	if d.Disconnect {
		d.Err = ErrDisconnected
		i.stats.Disconnects++
		i.dropped.Inc()
		return d
	}
	if i.p.Blackhole || (i.p.ErrorRate > 0 && i.rng.Float64() < i.p.ErrorRate) {
		d.Err = fmt.Errorf("%w (op %s)", ErrInjected, op)
		i.stats.Errors++
		i.errs.Inc()
	}
	return d
}

// apply sleeps out the decision's latency and returns its error; the common
// tail of the op hook and the conn wrappers.
func (d Decision) apply() error {
	if d.Latency > 0 {
		time.Sleep(d.Latency)
	}
	return d.Err
}

// OpHook adapts the injector to the per-operation hook shape func(op) error:
// the durability layer's crash seam, and what a processor calls before each
// store operation it wants to fail. The hook sleeps any injected latency
// before returning; crash decisions pass the *Crash error through unwrapped
// so the caller can read TornBytes.
func (i *Injector) OpHook() func(op string) error {
	return func(op string) error {
		return i.Decide(op).apply()
	}
}
