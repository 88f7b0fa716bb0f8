package obs

// Causal span tracing. A Span is one timed node of the causal tree of a run
// (run → wave → step → attempt → kv/net/WAL op). Span identifiers are
// deterministic, path-like strings derived from what the span *is* — e.g.
// run/w3/classify/a0 for attempt 0 of step "classify" in wave 3 — not from
// allocation order, so two runs of the same workload produce the same tree
// shape and IDs even though the recorded timings differ (see DESIGN.md §9
// for the determinism caveats). Durations come from Go's monotonic clock;
// start timestamps are wall-clock and only order the timeline.
//
// Like the rest of the package, spans are nil-safe: every method on a nil
// *Span is a no-op and child creation on a nil span returns nil, so an
// uninstrumented code path pays one nil check per hook and allocates
// nothing. Instrumented call sites should still guard any work done purely
// to build span inputs (ID formatting, attribute strings) behind a nil
// check of the parent span.
//
// A Span is owned by one goroutine at a time; only child creation (the
// automatic sequence counter) is safe to race. End is idempotent: the first
// call emits the event, later calls are dropped.

import (
	"encoding/json"
	"io"
	"sync/atomic"
	"time"
)

// SpanEvent is the wire record of one completed span, written to mixed JSONL
// streams next to decision events and discriminated by Type ("span").
type SpanEvent struct {
	// Type discriminates record kinds in mixed JSONL streams ("span").
	Type string `json:"type"`
	// ID is the deterministic path-like span identifier; Parent is the
	// parent span's ID ("" for roots).
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	// Name says what the span timed (e.g. "wave", "step", "attempt",
	// "wal.fsync", "put"); Layer attributes it to a latency layer:
	// "engine", "store", "net", "wal" or "ml".
	Name  string `json:"name"`
	Layer string `json:"layer"`
	// Wave is the 0-based wave index, -1 for spans outside any wave.
	Wave int `json:"wave"`
	// Step is the step ID for step/attempt spans; Attempt the 0-based
	// attempt index (-1 when not an attempt).
	Step    string `json:"step,omitempty"`
	Attempt int    `json:"attempt"`
	// StartNanos is the wall-clock start (Unix nanoseconds) — timeline
	// ordering only, nondeterministic. DurNanos is the monotonic duration.
	StartNanos int64 `json:"start_ns"`
	DurNanos   int64 `json:"dur_ns"`
	// Iota and Eps carry the decision quantities charged to the span: the
	// observed input impact and the simulated output error.
	Iota float64 `json:"iota,omitempty"`
	Eps  float64 `json:"eps,omitempty"`
	// Retries counts extra attempts consumed; Degraded marks a forced
	// skip; Skipped marks a decider-chosen (or unready) skip.
	Retries  int  `json:"retries,omitempty"`
	Degraded bool `json:"degraded,omitempty"`
	Skipped  bool `json:"skipped,omitempty"`
	// Bytes is the payload volume attributed to the span (bytes on wire
	// for net spans, bytes appended for WAL spans).
	Bytes int64 `json:"bytes,omitempty"`
	// Err is the failure that ended the span, empty on success.
	Err string `json:"err,omitempty"`
	// WaitFor lists the span IDs of same-wave siblings this span's start
	// waited on — the edges critical-path analysis walks.
	WaitFor []string `json:"wait_for,omitempty"`
	// Attrs carries any remaining structured attributes.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// SpanSink receives completed spans. Implementations must be safe for
// concurrent use and must not block for long: sinks sit on the engine's
// wave loop and the store/WAL hot paths.
type SpanSink interface {
	EmitSpan(ev SpanEvent)
}

// Span is one live node of the causal tree. Create roots with
// Observer.RootSpan and children with ChildKey; finish with End.
type Span struct {
	o     *Observer // where End emits
	start time.Time
	ended atomic.Bool
	ev    SpanEvent
}

// newSpan stamps the start time and the deterministic identity.
func newSpan(o *Observer, id, parent, name, layer string) *Span {
	start := time.Now()
	return &Span{
		o:     o,
		start: start,
		ev: SpanEvent{
			Type:       "span",
			ID:         id,
			Parent:     parent,
			Name:       name,
			Layer:      layer,
			Wave:       -1,
			Attempt:    -1,
			StartNanos: start.UnixNano(),
		},
	}
}

// ID returns the span's deterministic identifier ("" on nil).
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.ev.ID
}

// ChildKey starts a child span whose ID is this span's ID plus "/<key>".
// The caller chooses key to be deterministic (step IDs, "w3", "a0"). Returns
// nil on a nil receiver.
func (s *Span) ChildKey(key, name, layer string) *Span {
	if s == nil {
		return nil
	}
	return newSpan(s.o, s.ev.ID+"/"+key, s.ev.ID, name, layer)
}

// SetWave records the wave index.
func (s *Span) SetWave(wave int) {
	if s != nil {
		s.ev.Wave = wave
	}
}

// SetStep records the step ID.
func (s *Span) SetStep(step string) {
	if s != nil {
		s.ev.Step = step
	}
}

// SetAttempt records the attempt index.
func (s *Span) SetAttempt(attempt int) {
	if s != nil {
		s.ev.Attempt = attempt
	}
}

// SetIota records the observed input impact.
func (s *Span) SetIota(v float64) {
	if s != nil {
		s.ev.Iota = v
	}
}

// SetEps records the simulated output error charged to the span.
func (s *Span) SetEps(v float64) {
	if s != nil {
		s.ev.Eps = v
	}
}

// SetRetries records how many extra attempts the span consumed.
func (s *Span) SetRetries(n int) {
	if s != nil {
		s.ev.Retries = n
	}
}

// SetDegraded marks a forced skip after an exhausted retry budget.
func (s *Span) SetDegraded(v bool) {
	if s != nil {
		s.ev.Degraded = v
	}
}

// SetSkipped marks a decider-chosen (or unready) skip.
func (s *Span) SetSkipped(v bool) {
	if s != nil {
		s.ev.Skipped = v
	}
}

// SetBytes records the payload volume attributed to the span.
func (s *Span) SetBytes(n int64) {
	if s != nil {
		s.ev.Bytes = n
	}
}

// SetWaitFor records the span IDs this span's start waited on.
func (s *Span) SetWaitFor(ids []string) {
	if s != nil {
		s.ev.WaitFor = ids
	}
}

// SetAttr records one free-form attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	if s.ev.Attrs == nil {
		s.ev.Attrs = make(map[string]string, 2)
	}
	s.ev.Attrs[key] = value
}

// SetErr records the failure that ended the span (nil clears nothing).
func (s *Span) SetErr(err error) {
	if s != nil && err != nil {
		s.ev.Err = err.Error()
	}
}

// End stamps the monotonic duration and emits the span. Idempotent: only
// the first call emits.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.ev.DurNanos = time.Since(s.start).Nanoseconds()
	s.o.emitSpan(s.ev)
}

// EndErr records err (when non-nil) and ends the span.
func (s *Span) EndErr(err error) {
	s.SetErr(err)
	s.End()
}

// DefaultFlightSpans is the flight-recorder bound used when a SpanRing is
// created with a non-positive capacity.
const DefaultFlightSpans = 512

// SpanRing keeps the most recent spans in a fixed-capacity ring buffer. It
// doubles as the flight recorder: on crash the durable layer dumps the
// retained tail next to the WAL (Dump), and the debug server serves it live
// on /trace/spans. A nil *SpanRing retains nothing.
type SpanRing struct {
	ring[SpanEvent]
}

// NewSpanRing creates a ring retaining the last capacity spans
// (DefaultFlightSpans when capacity <= 0).
func NewSpanRing(capacity int) *SpanRing {
	if capacity <= 0 {
		capacity = DefaultFlightSpans
	}
	return &SpanRing{ring[SpanEvent]{buf: make([]SpanEvent, 0, capacity)}}
}

// EmitSpan implements SpanSink.
func (s *SpanRing) EmitSpan(ev SpanEvent) { s.add(ev) }

// Len returns the number of retained spans.
func (s *SpanRing) Len() int {
	if s == nil {
		return 0
	}
	return s.ring.Len()
}

// Tail returns up to n of the most recent spans, oldest first. n <= 0
// returns everything retained.
func (s *SpanRing) Tail(n int) []SpanEvent {
	if s == nil {
		return nil
	}
	return s.ring.Tail(n)
}

// Dump writes the retained spans, oldest first, as JSON lines — the
// flight-recorder post-mortem format cmd/sftrace reads.
func (s *SpanRing) Dump(w io.Writer) error {
	if s == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, ev := range s.Tail(0) {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

var _ SpanSink = (*SpanRing)(nil)
