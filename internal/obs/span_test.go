package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestSpanTreeEmission(t *testing.T) {
	ring := NewSpanRing(64)
	o := New(NewRegistry()).WithSpanSinks(ring)
	if !o.Spanning() {
		t.Fatal("observer with span sink must report Spanning")
	}

	run := o.RootSpan("run", "run", "engine")
	wave := run.ChildKey("w0", "wave", "engine")
	wave.SetWave(0)
	step := wave.ChildKey("classify", "step", "engine")
	step.SetWave(0)
	step.SetStep("classify")
	step.SetIota(0.42)
	step.SetEps(0.07)
	step.SetWaitFor([]string{"run/w0/count"})
	att := step.ChildKey("a0", "attempt", "engine")
	att.SetAttempt(0)
	att.End()
	step.End()
	wave.End()

	got := ring.Tail(0)
	if len(got) != 3 {
		t.Fatalf("want 3 spans (run root unended), got %d: %+v", len(got), got)
	}
	// Emission order is end order: attempt, step, wave.
	if got[0].ID != "run/w0/classify/a0" || got[0].Parent != "run/w0/classify" || got[0].Attempt != 0 {
		t.Errorf("attempt span = %+v", got[0])
	}
	st := got[1]
	if st.ID != "run/w0/classify" || st.Step != "classify" || st.Iota != 0.42 || st.Eps != 0.07 {
		t.Errorf("step span = %+v", st)
	}
	if len(st.WaitFor) != 1 || st.WaitFor[0] != "run/w0/count" {
		t.Errorf("step wait_for = %v", st.WaitFor)
	}
	if got[2].ID != "run/w0" || got[2].Wave != 0 || got[2].Parent != "run" {
		t.Errorf("wave span = %+v", got[2])
	}
	for _, ev := range got {
		if ev.DurNanos < 0 {
			t.Errorf("span %s has negative duration %d", ev.ID, ev.DurNanos)
		}
		if ev.Type != "span" {
			t.Errorf("span %s type = %q", ev.ID, ev.Type)
		}
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	ring := NewSpanRing(8)
	o := New(nil).WithSpanSinks(ring)
	sp := o.RootSpan("x", "x", "engine")
	sp.EndErr(errors.New("boom"))
	sp.End()
	sp.End()
	if ring.Len() != 1 {
		t.Fatalf("End must emit once, got %d", ring.Len())
	}
	if ev := ring.Tail(0)[0]; ev.Err != "boom" {
		t.Errorf("err = %q", ev.Err)
	}
}

func TestSpanNilSafety(t *testing.T) {
	var o *Observer
	if o.Spanning() {
		t.Fatal("nil observer must not span")
	}
	if o.WithSpanSinks(NewSpanRing(4)) != nil {
		t.Fatal("WithSpanSinks on nil observer must stay nil")
	}
	if o.Flight() != nil {
		t.Fatal("nil observer flight must be nil")
	}
	sp := o.RootSpan("run", "run", "engine")
	if sp != nil {
		t.Fatal("RootSpan on nil observer must be nil")
	}
	// Every method on a nil span must no-op.
	if sp.ID() != "" {
		t.Fatal("nil span ID must be empty")
	}
	if sp.Child("op", "store") != nil || sp.ChildKey("k", "op", "store") != nil {
		t.Fatal("children of nil span must be nil")
	}
	sp.SetWave(1)
	sp.SetStep("s")
	sp.SetAttempt(2)
	sp.SetIota(1)
	sp.SetEps(1)
	sp.SetRetries(1)
	sp.SetDegraded(true)
	sp.SetSkipped(true)
	sp.SetBytes(10)
	sp.SetWaitFor([]string{"a"})
	sp.SetAttr("k", "v")
	sp.SetErr(errors.New("x"))
	sp.MarkWait()
	sp.End()
	sp.EndErr(errors.New("y"))

	// Observer without span sinks must hand out nil roots.
	o2 := New(NewRegistry())
	if o2.Spanning() || o2.RootSpan("run", "run", "engine") != nil {
		t.Fatal("observer without span sinks must not span")
	}

	var ring *SpanRing
	if ring.Len() != 0 || ring.Total() != 0 || ring.Tail(3) != nil || ring.Dump(&bytes.Buffer{}) != nil {
		t.Fatal("nil span ring must be inert")
	}
}

func TestSpanRingWrapAndConcurrentWriters(t *testing.T) {
	const capacity = 32
	ring := NewSpanRing(capacity)
	var wg sync.WaitGroup
	const writers, perWriter = 8, 100
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				ring.EmitSpan(SpanEvent{ID: fmt.Sprintf("w%d/%d", w, i)})
				if i%10 == 0 {
					ring.Tail(4) // readers race writers
					ring.Len()
				}
			}
		}(w)
	}
	wg.Wait()
	if ring.Total() != writers*perWriter {
		t.Fatalf("total = %d, want %d", ring.Total(), writers*perWriter)
	}
	if ring.Len() != capacity {
		t.Fatalf("len = %d, want %d", ring.Len(), capacity)
	}
	if got := ring.Tail(5); len(got) != 5 {
		t.Fatalf("tail(5) = %d spans", len(got))
	}
	if got := ring.Tail(0); len(got) != capacity {
		t.Fatalf("tail(0) = %d spans", len(got))
	}
}

func TestSpanRingDump(t *testing.T) {
	ring := NewSpanRing(4)
	for i := 0; i < 6; i++ { // overflow: keep the last 4
		ring.EmitSpan(SpanEvent{Type: "span", ID: fmt.Sprintf("s%d", i)})
	}
	var buf bytes.Buffer
	if err := ring.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("dump lines = %d, want 4", len(lines))
	}
	for i, line := range lines {
		var ev SpanEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if want := fmt.Sprintf("s%d", i+2); ev.ID != want {
			t.Errorf("line %d id = %q, want %q", i, ev.ID, want)
		}
	}
}

func TestJSONLSinkMixedStream(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	o := New(nil, sink).WithSpanSinks(sink)
	o.EmitDecision(DecisionEvent{Wave: 1, Step: "agg"})
	o.RootSpan("run", "run", "engine").End()
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	var kinds []string
	for _, line := range lines {
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, probe.Type)
	}
	if kinds[0] != "decision" || kinds[1] != "span" {
		t.Errorf("kinds = %v", kinds)
	}
}

func TestObserverFlightRecorder(t *testing.T) {
	ring := NewSpanRing(8)
	jsonl := NewJSONLSink(&bytes.Buffer{})
	o := New(nil).WithSpanSinks(jsonl, ring)
	if o.Flight() != ring {
		t.Fatal("flight must resolve to the first attached SpanRing")
	}
	o.RootSpan("run", "run", "engine").End()
	if ring.Len() != 1 {
		t.Fatal("flight ring must receive spans")
	}
	// Chaining keeps the existing flight and adds sinks.
	extra := NewSpanRing(8)
	o.WithSpanSinks(extra)
	if o.Flight() != ring {
		t.Fatal("chained WithSpanSinks must keep the first flight ring")
	}
	o.RootSpan("x", "x", "engine").End()
	if extra.Len() != 1 || ring.Len() != 2 {
		t.Fatalf("chained sink counts = %d/%d", extra.Len(), ring.Len())
	}
}

func TestSpanChildSequence(t *testing.T) {
	ring := NewSpanRing(8)
	o := New(nil).WithSpanSinks(ring)
	root := o.RootSpan("wal", "wal", "wal")
	a := root.Child("append", "wal")
	b := root.Child("append", "wal")
	if a.ID() != "wal/append0" || b.ID() != "wal/append1" {
		t.Errorf("child IDs = %q, %q", a.ID(), b.ID())
	}
}

func TestMarkWaitSplitsDuration(t *testing.T) {
	ring := NewSpanRing(4)
	o := New(nil).WithSpanSinks(ring)
	sp := o.RootSpan("run/w0/s", "step", "engine")
	sp.MarkWait()
	sp.End()
	ev := ring.Tail(0)[0]
	if ev.WaitNanos < 0 || ev.WaitNanos > ev.DurNanos {
		t.Errorf("wait %d must be within duration %d", ev.WaitNanos, ev.DurNanos)
	}
}
