// Package obs is a want-harness stand-in for the real observability layer:
// the release analyzer matches span-returning APIs by this package's *Span
// result type. The package itself is exempt from span obligations (it is
// the implementation), which the harness verifies by keeping this file
// clean of want comments despite the bare constructors below.
package obs

// Observer is the minimal span-creating entry point.
type Observer struct{}

// Span is the tracked span type.
type Span struct{}

// RootSpan starts a root span.
func (o *Observer) RootSpan(id, name, layer string) *Span { return nil }

// Child starts an auto-sequenced child span.
func (s *Span) Child(name, layer string) *Span { return nil }

// ChildKey starts a child span under a deterministic key.
func (s *Span) ChildKey(key, name, layer string) *Span { return nil }

// SetWave attaches the wave index.
func (s *Span) SetWave(wave int) {}

// MarkWait records the wait/execute boundary.
func (s *Span) MarkWait() {}

// End emits the span.
func (s *Span) End() {}

// EndErr emits the span with a failure.
func (s *Span) EndErr(err error) {}

// DecisionEvent mirrors the real decision-trace record: detflow treats its
// fields as sinks because traces must replay bit-identically.
type DecisionEvent struct {
	Wave          int
	Step          string
	SimEps        float64
	DecisionNanos int64
	Note          string
}

// Tracer emits decision events.
type Tracer struct{}

// Emit records one decision event.
func (t *Tracer) Emit(ev DecisionEvent) {}
