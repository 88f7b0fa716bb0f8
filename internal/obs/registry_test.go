package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	c.Inc()
	c.Add(3)
	g.Set(1)
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil instruments must read zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}

	var o *Observer
	if o.Metrics() != nil || o.Tracing() {
		t.Fatal("nil observer must report no capabilities")
	}
	o.Counter("x").Inc()
	o.EmitDecision(DecisionEvent{})
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("reqs_total") != c {
		t.Fatal("same name must resolve to same counter")
	}
	g := r.Gauge("phase")
	g.Set(2.5)
	g.Set(2)
	if g.Value() != 2 {
		t.Fatalf("gauge = %v, want 2", g.Value())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", 1, 2, 4, 8)
	// 100 samples uniformly in (0,1]: p50 ≈ 0.5, p95 ≈ 0.95 within the
	// first bucket's interpolation.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-50.5) > 1e-9 {
		t.Fatalf("sum = %v", h.Sum())
	}
	if p := h.Quantile(0.5); math.Abs(p-0.5) > 0.02 {
		t.Fatalf("p50 = %v", p)
	}
	if p := h.Quantile(0.95); math.Abs(p-0.95) > 0.02 {
		t.Fatalf("p95 = %v", p)
	}
	// Overflow samples report the largest finite bound.
	h2 := r.Histogram("lat2", 1, 2)
	h2.Observe(100)
	if p := h2.Quantile(0.99); p != 2 {
		t.Fatalf("overflow quantile = %v, want 2", p)
	}
	if h2.Snapshot().Count != 1 {
		t.Fatal("snapshot count")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewRegistry().Histogram("h", DefaultLatencyBuckets...)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	if math.Abs(h.Sum()-8) > 1e-6 {
		t.Fatalf("sum = %v, want 8", h.Sum())
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(`decisions_total{verdict="exec"}`).Add(7)
	r.Counter(`decisions_total{verdict="skip"}`).Add(3)
	r.Gauge("phase").Set(3)
	h := r.Histogram("wave_seconds", 0.1, 1)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE decisions_total counter",
		`decisions_total{verdict="exec"} 7`,
		`decisions_total{verdict="skip"} 3`,
		"# TYPE phase gauge",
		"phase 3",
		"# TYPE wave_seconds histogram",
		`wave_seconds_bucket{le="0.1"} 1`,
		`wave_seconds_bucket{le="1"} 2`,
		`wave_seconds_bucket{le="+Inf"} 3`,
		"wave_seconds_count 3",
		"wave_seconds_p95",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(2)
	r.Gauge("g").Set(1.5)
	r.Histogram("h").Observe(0.01)
	snap := r.Snapshot()
	if snap.Counters["c"] != 2 || snap.Gauges["g"] != 1.5 || snap.Histograms["h"].Count != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}
