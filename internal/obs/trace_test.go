package obs

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
)

func TestJSONLSink(t *testing.T) {
	var b strings.Builder
	sink := NewJSONLSink(&b)
	o := New(nil, sink)
	o.EmitDecision(DecisionEvent{Wave: 0, Step: "agg", Impact: 0.3, Verdict: true, Executed: true})
	o.EmitDecision(DecisionEvent{Wave: 1, Step: "agg", Impact: 0.1, PredictedLabel: 0})
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(strings.NewReader(b.String()))
	var events []DecisionEvent
	for sc.Scan() {
		var ev DecisionEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if events[0].Type != "decision" {
		t.Fatalf("observer must default Type, got %q", events[0].Type)
	}
	if events[0].Step != "agg" || !events[0].Executed || events[1].Wave != 1 {
		t.Fatalf("round-trip mismatch: %+v", events)
	}
}

func TestRingSink(t *testing.T) {
	ring := NewRingSink(3)
	if got := ring.Tail(10); len(got) != 0 {
		t.Fatal("empty ring must tail empty")
	}
	for w := 0; w < 5; w++ {
		ring.Emit(DecisionEvent{Wave: w})
	}
	if ring.Len() != 3 {
		t.Fatalf("len=%d", ring.Len())
	}
	tail := ring.Tail(0)
	if len(tail) != 3 || tail[0].Wave != 2 || tail[2].Wave != 4 {
		t.Fatalf("tail = %+v", tail)
	}
	last := ring.Tail(1)
	if len(last) != 1 || last[0].Wave != 4 {
		t.Fatalf("tail(1) = %+v", last)
	}
}

func TestRingSinkPartial(t *testing.T) {
	ring := NewRingSink(8)
	for w := 0; w < 3; w++ {
		ring.Emit(DecisionEvent{Wave: w})
	}
	tail := ring.Tail(2)
	if len(tail) != 2 || tail[0].Wave != 1 || tail[1].Wave != 2 {
		t.Fatalf("tail = %+v", tail)
	}
}

func TestObserverBundle(t *testing.T) {
	reg := NewRegistry()
	ring := NewRingSink(4)
	o := New(reg, ring)
	if !o.Tracing() || o.Metrics() != reg {
		t.Fatal("observer wiring")
	}
	o.Counter("c").Inc()
	o.EmitDecision(DecisionEvent{Wave: 7})
	if reg.Counter("c").Value() != 1 || ring.Len() != 1 {
		t.Fatal("observer must forward to registry and sinks")
	}
	noTrace := New(reg)
	if noTrace.Tracing() {
		t.Fatal("observer without sinks must not trace")
	}
	noTrace.EmitDecision(DecisionEvent{})
}
