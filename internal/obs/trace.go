package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// DecisionEvent records everything SmartFlux knew, predicted and did for one
// (wave, gated step) pair: the ι features the decision was taken on, the
// decider's verdict, whether the step actually executed, the simulated and
// (when a harness measures the step) measured/predicted output errors ε, and
// how long the decision itself took. Events are emitted by the engine per
// gated step per wave; a Harness enriches them with the reference instance's
// optimal label and the measured error series before emission.
type DecisionEvent struct {
	// Type discriminates record kinds in mixed JSONL streams ("decision").
	Type string `json:"type"`
	// Wave is the 0-based wave index.
	Wave int `json:"wave"`
	// Step is the gated step's ID; StepIndex its gated topological index.
	Step      string `json:"step"`
	StepIndex int    `json:"step_index"`
	// Policy is the decider's name (e.g. "smartflux", "sync", "seq3").
	Policy string `json:"policy,omitempty"`
	// Impact is the step's own input impact ι this wave; Impacts is the
	// full per-gated-step ι vector the decider saw.
	Impact  float64   `json:"iota"`
	Impacts []float64 `json:"iota_vector,omitempty"`
	// Ready reports whether the step's predecessors had all executed; the
	// decider is only consulted when true.
	Ready bool `json:"ready"`
	// PredictedLabel is the decider's verdict as a label (1 = execute,
	// 0 = skip, -1 = decider not consulted).
	PredictedLabel int `json:"predicted_label"`
	// Verdict is the raw execute/skip decision; Executed whether the step
	// actually ran (verdict gated by readiness).
	Verdict  bool `json:"verdict"`
	Executed bool `json:"executed"`
	// Degraded marks a forced skip: the decider said execute but the step
	// exhausted its retry budget and was rolled back, its shadow error left
	// accumulating as if skipped (see DESIGN.md §2).
	Degraded bool `json:"degraded,omitempty"`
	// OptimalLabel is the simulated-optimal decision (1 = the true error
	// exceeded maxε), -1 when unknown.
	OptimalLabel int `json:"optimal_label"`
	// SimEps is the shadow output error observed when the step executed
	// (the ε of the (ι, ε) training pairs); zero for skipped waves.
	SimEps float64 `json:"sim_eps"`
	// MeasuredEps and PredictedEps are the harness-measured §5.2 error
	// series for report steps; EpsKnown marks them as populated.
	MeasuredEps  float64 `json:"measured_eps"`
	PredictedEps float64 `json:"predicted_eps"`
	EpsKnown     bool    `json:"eps_known"`
	// MaxEps is the step's bound maxε; Violation whether MeasuredEps
	// exceeded it this wave.
	MaxEps    float64 `json:"max_eps"`
	Violation bool    `json:"violation"`
	// DecisionNanos is the wall time spent inside the decider.
	DecisionNanos int64 `json:"decision_ns"`
}

// Sink receives decision events. Implementations must be safe for
// concurrent use and must not block for long: sinks sit on the engine's
// wave loop.
type Sink interface {
	Emit(ev DecisionEvent)
}

// JSONLSink writes one JSON object per event, newline-delimited, to an
// io.Writer. Writes are serialized; the first write error is retained and
// subsequent events are dropped.
type JSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJSONLSink creates a sink writing to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Emit implements Sink.
func (s *JSONLSink) Emit(ev DecisionEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(ev)
}

// EmitSpan implements SpanSink, interleaving span records with decision
// records in the same stream; readers discriminate by the "type" field.
func (s *JSONLSink) EmitSpan(ev SpanEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(ev)
}

// Err returns the first write error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

var (
	_ Sink     = (*JSONLSink)(nil)
	_ SpanSink = (*JSONLSink)(nil)
)

// RingSink keeps the most recent events in a fixed-capacity ring buffer, so
// a live process can serve "what just happened" queries (/trace/tail)
// without unbounded memory.
type RingSink struct {
	ring[DecisionEvent]
}

// NewRingSink creates a ring retaining the last capacity events (minimum 1).
func NewRingSink(capacity int) *RingSink {
	if capacity < 1 {
		capacity = 1
	}
	return &RingSink{ring[DecisionEvent]{buf: make([]DecisionEvent, 0, capacity)}}
}

// Emit implements Sink.
func (s *RingSink) Emit(ev DecisionEvent) { s.add(ev) }

var _ Sink = (*RingSink)(nil)

// ring is the fixed-capacity buffer behind RingSink and SpanRing: it keeps
// the most recent events of one type and counts every event ever added.
type ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	next  int
	total uint64
}

// add retains ev, overwriting the oldest event once the ring is full.
func (r *ring[T]) add(ev T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.next] = ev
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.total++
}

// Len returns the number of retained events.
func (r *ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Total returns the number of events ever emitted.
func (r *ring[T]) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Tail returns up to n of the most recent events, oldest first. n <= 0
// returns everything retained.
func (r *ring[T]) Tail(n int) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	size := len(r.buf)
	if n <= 0 || n > size {
		n = size
	}
	out := make([]T, 0, n)
	// Events are ordered starting at next (oldest) when the ring is full,
	// at 0 otherwise.
	start := 0
	if size == cap(r.buf) {
		start = r.next
	}
	for i := size - n; i < size; i++ {
		out = append(out, r.buf[(start+i)%size])
	}
	return out
}
