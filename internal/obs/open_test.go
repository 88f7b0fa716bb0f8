package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestOpenNoFlags(t *testing.T) {
	var out strings.Builder
	o, closeObs, err := Open("", "", "", &out)
	if err != nil || o != nil || out.Len() != 0 {
		t.Fatalf("Open with no flags = %v, %v, printed %q; want a nil observer", o, err, out.String())
	}
	if err := closeObs(); err != nil {
		t.Error(err)
	}
}

func TestOpenWritesAndCloses(t *testing.T) {
	dir := t.TempDir()
	trace, spans := filepath.Join(dir, "trace.jsonl"), filepath.Join(dir, "spans.jsonl")
	var out strings.Builder
	o, closeObs, err := Open("127.0.0.1:0", trace, spans, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "observability on http://127.0.0.1:") {
		t.Errorf("missing the server line: %q", out.String())
	}
	if !o.Tracing() || !o.Spanning() || o.Metrics() == nil || o.Flight() == nil {
		t.Error("the observer should trace, span, count and keep a flight ring")
	}
	o.EmitDecision(DecisionEvent{Wave: 1, Step: "s"})
	o.RootSpan("r", "run", "core").End()
	if err := closeObs(); err != nil {
		t.Fatal(err)
	}
	for path, lines := range map[string]int{trace: 1, spans: 2} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Count(string(data), "\n"); got != lines {
			t.Errorf("%s has %d lines, want %d", filepath.Base(path), got, lines)
		}
	}
}

func TestOpenReportsWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full:", err)
	}
	o, closeObs, err := Open("", "", "/dev/full", new(strings.Builder))
	if err != nil {
		t.Fatal(err)
	}
	o.EmitDecision(DecisionEvent{Wave: 1, Step: "s"})
	if err := closeObs(); err == nil || !strings.HasPrefix(err.Error(), "span-out: ") {
		t.Errorf("close = %v, want the span-out write error", err)
	}
	if _, _, err := Open("", filepath.Join(t.TempDir(), "missing", "t.jsonl"), "", new(strings.Builder)); err == nil {
		t.Error("an uncreatable trace file must fail Open")
	}
}
