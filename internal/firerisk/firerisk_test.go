package firerisk

import (
	"math"
	"testing"

	"smartflux/internal/engine"
	"smartflux/internal/workflow"
)

func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(Config{Seed: 5})
	b := NewGenerator(Config{Seed: 5})
	for w := 0; w < 50; w++ {
		if a.Temperature(w, 1, 2) != b.Temperature(w, 1, 2) {
			t.Fatal("temperature diverged")
		}
		if a.Precipitation(w, 3, 4) != b.Precipitation(w, 3, 4) {
			t.Fatal("precipitation diverged")
		}
		if a.Wind(w, 5, 6) != b.Wind(w, 5, 6) {
			t.Fatal("wind diverged")
		}
	}
}

func TestGeneratorFigure3Shape(t *testing.T) {
	// Figure 3: temperature ~24-30 °C over a day, precipitation small and
	// non-negative, wind a few km/h — all varying progressively.
	g := NewGenerator(Config{Seed: 1})
	var minT, maxT = math.Inf(1), math.Inf(-1)
	for w := 0; w < WavesPerDay; w++ {
		var t0 float64
		for x := 0; x < 10; x++ {
			for y := 0; y < 10; y++ {
				t0 += g.Temperature(w, x, y)
			}
		}
		t0 /= 100
		minT = math.Min(minT, t0)
		maxT = math.Max(maxT, t0)
	}
	if minT < 20 || maxT > 45 {
		t.Errorf("daily temperature range [%v, %v] implausible", minT, maxT)
	}
	if maxT-minT < 2 {
		t.Errorf("diurnal swing %v too flat", maxT-minT)
	}
	for w := 0; w < WavesPerDay; w++ {
		if g.Precipitation(w, 0, 0) < 0 {
			t.Fatal("negative precipitation")
		}
	}
}

func TestHeatEventsBoostTemperature(t *testing.T) {
	g := NewGenerator(Config{Seed: 2})
	g.ensureEvents(200)
	if len(g.events) == 0 {
		t.Fatal("no events scheduled")
	}
	ev := g.events[0]
	mid := ev.start + ev.duration/2
	atCenter := g.eventBoost(mid, int(ev.cx), int(ev.cy))
	if atCenter <= 0 {
		t.Errorf("event boost at center = %v", atCenter)
	}
	before := g.eventBoost(ev.start-1, int(ev.cx), int(ev.cy))
	if before != 0 {
		t.Errorf("boost before event = %v", before)
	}
}

func TestBuildWorkflowStructure(t *testing.T) {
	wf, _, err := Build(Config{Seed: 1})()
	if err != nil {
		t.Fatal(err)
	}
	if order, err := wf.Order(); err != nil || len(order) != 7 {
		t.Errorf("%d steps (%v), want 7 (Figure 2)", len(order), err)
	}
	gated, err := wf.GatedSteps()
	if err != nil {
		t.Fatal(err)
	}
	if len(gated) != 4 {
		t.Errorf("gated = %v", gated)
	}
	// Satellite and dispatch tolerate no error.
	for _, id := range []string{string(StepSatellite), string(StepDispatch)} {
		step, err := wf.Step(workflow.StepID(id))
		if err != nil {
			t.Fatal(err)
		}
		if step.Gated() {
			t.Errorf("%s must not be gated", id)
		}
	}
	// The area step's bound is tighter than the overall step's.
	areas, _ := wf.Step(StepAreas)
	overall, _ := wf.Step(StepOverall)
	if areas.QoD.MaxError >= overall.QoD.MaxError {
		t.Error("area aggregation must have a tighter bound than the output")
	}
}

func TestWorkflowEndToEnd(t *testing.T) {
	wf, store, err := Build(Config{Seed: 1})()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := engine.NewInstance(wf, store, engine.InstanceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 3; w++ {
		if _, err := inst.RunWave(engine.Sync{}); err != nil {
			t.Fatal(err)
		}
	}
	overall, err := store.Table(TableOverall)
	if err != nil {
		t.Fatal(err)
	}
	risk, ok := overall.GetFloat("region", "risk")
	if !ok || risk <= 0 {
		t.Errorf("overall risk = %v, %v", risk, ok)
	}
	dispatch, err := store.Table(TableDispatch)
	if err != nil {
		t.Fatal(err)
	}
	order, ok := dispatch.GetFloat("region", "order")
	if !ok || (order != 0 && order != 1) {
		t.Errorf("dispatch order = %v, %v", order, ok)
	}
}

func TestClusterCount(t *testing.T) {
	tests := []struct {
		name string
		hot  map[[2]int]bool
		want int
	}{
		{name: "empty", hot: nil, want: 0},
		{name: "single", hot: map[[2]int]bool{{0, 0}: true}, want: 1},
		{
			name: "one connected cluster",
			hot:  map[[2]int]bool{{0, 0}: true, {0, 1}: true, {1, 1}: true},
			want: 1,
		},
		{
			name: "two clusters",
			hot:  map[[2]int]bool{{0, 0}: true, {5, 5}: true},
			want: 2,
		},
		{
			name: "diagonal is not connected",
			hot:  map[[2]int]bool{{0, 0}: true, {1, 1}: true},
			want: 2,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := clusterCount(tt.hot); got != tt.want {
				t.Errorf("clusterCount = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.GridSize != 10 || cfg.AreaSize != 2 || cfg.MaxError != 0.10 {
		t.Errorf("defaults = %+v", cfg)
	}
}
