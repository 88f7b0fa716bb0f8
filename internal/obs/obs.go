// Package obs is SmartFlux's observability layer: a lock-cheap metrics
// registry (counters, gauges, streaming histograms with a Prometheus-style
// text exposition), a structured decision tracer that
// records one event per (wave, gated step), a causal span tracer that times
// the run → wave → step → attempt → op tree (span.go), and an optional debug
// HTTP server exposing /metrics, /trace/tail, /trace/spans and
// net/http/pprof.
//
// The whole package is nil-safe by design: every method on a nil *Registry,
// *Counter, *Gauge, *Histogram, *Span or *Observer is a no-op, so
// instrumented code paths (engine, session, store, network layer) carry no
// conditional wiring — they call the hooks unconditionally and pay only a
// nil check when observability is not attached.
package obs

// Observer bundles the observability capabilities instrumented components
// accept: a metrics registry, the decision-event sinks and the span sinks. A
// nil *Observer (or one with no registry or no sinks) turns every hook into
// a no-op.
type Observer struct {
	reg       *Registry
	sinks     []Sink
	spanSinks []SpanSink
	flight    *SpanRing
}

// New creates an observer over reg (may be nil) emitting decision events to
// the given sinks (nils are dropped; none disables tracing).
func New(reg *Registry, sinks ...Sink) *Observer {
	o := &Observer{reg: reg}
	for _, s := range sinks {
		if s != nil {
			o.sinks = append(o.sinks, s)
		}
	}
	return o
}

// Metrics returns the observer's registry, or nil.
func (o *Observer) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Counter resolves a counter from the observer's registry (nil-safe).
func (o *Observer) Counter(name string) *Counter {
	return o.Metrics().Counter(name)
}

// Gauge resolves a gauge from the observer's registry (nil-safe).
func (o *Observer) Gauge(name string) *Gauge {
	return o.Metrics().Gauge(name)
}

// Histogram resolves a histogram from the observer's registry (nil-safe).
func (o *Observer) Histogram(name string, bounds ...float64) *Histogram {
	return o.Metrics().Histogram(name, bounds...)
}

// Tracing reports whether decision events have anywhere to go. Hot paths
// use it to skip building events entirely when no sink is attached.
func (o *Observer) Tracing() bool {
	return o != nil && len(o.sinks) > 0
}

// EmitDecision forwards one decision event to every attached sink, typing
// it "decision" when the type is unset.
func (o *Observer) EmitDecision(ev DecisionEvent) {
	if o == nil {
		return
	}
	if ev.Type == "" {
		ev.Type = "decision"
	}
	for _, s := range o.sinks {
		s.Emit(ev)
	}
}

// WithSpanSinks attaches span sinks to the observer and returns it, enabling
// span emission on every instrumented layer. The first *SpanRing among the
// sinks (if any) is remembered as the flight recorder, reachable via Flight
// for post-mortem dumps. Calling it again chains additional sinks. A nil
// receiver stays nil.
func (o *Observer) WithSpanSinks(sinks ...SpanSink) *Observer {
	if o == nil {
		return nil
	}
	for _, s := range sinks {
		if s == nil {
			continue
		}
		o.spanSinks = append(o.spanSinks, s)
		if ring, ok := s.(*SpanRing); ok && o.flight == nil {
			o.flight = ring
		}
	}
	return o
}

// Spanning reports whether spans have anywhere to go. Hot paths use it to
// skip building span IDs and attributes entirely when disabled.
func (o *Observer) Spanning() bool {
	return o != nil && len(o.spanSinks) > 0
}

// emitSpan forwards one completed span to every span sink, typing it
// "span" when the type is unset.
func (o *Observer) emitSpan(ev SpanEvent) {
	if ev.Type == "" {
		ev.Type = "span"
	}
	for _, s := range o.spanSinks {
		s.EmitSpan(ev)
	}
}

// RootSpan starts a root span with the given deterministic ID, or returns
// nil when spanning is disabled.
func (o *Observer) RootSpan(id, name, layer string) *Span {
	if !o.Spanning() {
		return nil
	}
	return newSpan(o, id, "", name, layer)
}

// Flight returns the flight-recorder ring attached via WithSpanSinks, or
// nil.
func (o *Observer) Flight() *SpanRing {
	if o == nil {
		return nil
	}
	return o.flight
}
