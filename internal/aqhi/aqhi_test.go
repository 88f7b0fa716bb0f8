package aqhi

import (
	"testing"

	"smartflux/internal/engine"
	"smartflux/internal/kvstore"
)

func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(Config{Seed: 5})
	b := NewGenerator(Config{Seed: 5})
	for wave := 0; wave < 30; wave++ {
		for p := 0; p < 3; p++ {
			va := a.Reading(wave, wave%8, (wave*3)%8, p)
			vb := b.Reading(wave, wave%8, (wave*3)%8, p)
			if va != vb {
				t.Fatalf("wave %d pollutant %d: %v != %v", wave, p, va, vb)
			}
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	a := NewGenerator(Config{Seed: 1})
	b := NewGenerator(Config{Seed: 2})
	var differ bool
	for wave := 0; wave < 10 && !differ; wave++ {
		if a.Reading(wave, 0, 0, 0) != b.Reading(wave, 0, 0, 0) {
			differ = true
		}
	}
	if !differ {
		t.Error("different seeds must produce different readings")
	}
}

func TestGeneratorRange(t *testing.T) {
	g := NewGenerator(Config{Seed: 7})
	for wave := 0; wave < 200; wave++ {
		for p := 0; p < 3; p++ {
			v := g.Reading(wave, wave%12, (wave*5)%12, p)
			if v < 0 || v > 100 {
				t.Fatalf("reading %v outside [0,100]", v)
			}
		}
	}
}

func TestEpisodesScheduled(t *testing.T) {
	g := NewGenerator(Config{Seed: 3})
	g.ensureEpisodes(500)
	if len(g.episodes) < 5 {
		t.Fatalf("only %d episodes over 500 waves", len(g.episodes))
	}
	for i := 1; i < len(g.episodes); i++ {
		prev, cur := g.episodes[i-1], g.episodes[i]
		if cur.start < prev.start+prev.duration {
			t.Error("episodes must not overlap in the schedule")
		}
	}
}

func TestRiskClass(t *testing.T) {
	tests := []struct {
		index float64
		want  string
	}{
		{index: 1, want: "low"},
		{index: 3, want: "low"},
		{index: 4, want: "moderate"},
		{index: 6, want: "moderate"},
		{index: 7, want: "high"},
		{index: 10, want: "high"},
		{index: 12, want: "very high"},
	}
	for _, tt := range tests {
		if got := RiskClass(tt.index); got != tt.want {
			t.Errorf("RiskClass(%v) = %q, want %q", tt.index, got, tt.want)
		}
	}
}

func TestBuildWorkflowStructure(t *testing.T) {
	wf, store, err := Build(Config{Seed: 1})()
	if err != nil {
		t.Fatal(err)
	}
	if store == nil {
		t.Fatal("nil store")
	}
	if order, err := wf.Order(); err != nil || len(order) != 6 {
		t.Errorf("%d steps (%v), want 6 (Figure 6)", len(order), err)
	}
	gated, err := wf.GatedSteps()
	if err != nil {
		t.Fatal(err)
	}
	if len(gated) != 5 {
		t.Errorf("gated steps = %v", gated)
	}
	// Step 5 is the last gated step (the workflow output).
	if gated[len(gated)-1] != StepIndex {
		t.Errorf("last gated step = %v", gated[len(gated)-1])
	}
	preds := wf.Predecessors(StepIndex)
	if len(preds) != 1 || preds[0] != StepHotspots {
		t.Errorf("index predecessors = %v", preds)
	}
}

func TestWorkflowProducesIndex(t *testing.T) {
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
	table, err := store.Table(TableIndex)
	if err != nil {
		t.Fatal(err)
	}
	index, ok := table.GetFloat("region", "index")
	if !ok {
		t.Fatal("index cell missing after sync waves")
	}
	if index < 1 || index > 30 {
		t.Errorf("index %v implausible", index)
	}
	// All intermediate containers must be populated.
	for _, name := range []string{TableSensors, TableConcentration, TableZones, TableInterp, TableHotspots} {
		tbl, err := store.Table(name)
		if err != nil {
			t.Fatalf("table %s missing: %v", name, err)
		}
		if len(tbl.Scan(kvstore.ScanOptions{})) == 0 {
			t.Errorf("table %s empty", name)
		}
	}
}

func TestBuildInstancesAreIdentical(t *testing.T) {
	build := Build(Config{Seed: 9})
	wfA, storeA, err := build()
	if err != nil {
		t.Fatal(err)
	}
	wfB, storeB, err := build()
	if err != nil {
		t.Fatal(err)
	}
	instA, _ := engine.NewInstance(wfA, storeA, engine.InstanceConfig{})
	instB, _ := engine.NewInstance(wfB, storeB, engine.InstanceConfig{})
	for w := 0; w < 5; w++ {
		if _, err := instA.RunWave(engine.Sync{}); err != nil {
			t.Fatal(err)
		}
		if _, err := instB.RunWave(engine.Sync{}); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := storeA.Table(TableIndex)
	b, _ := storeB.Table(TableIndex)
	va, _ := a.GetFloat("region", "index")
	vb, _ := b.GetFloat("region", "index")
	if va != vb {
		t.Errorf("two builds diverged: %v vs %v", va, vb)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.GridSize != 12 || cfg.ZoneSize != 3 || cfg.HotspotReference != 40 || cfg.MaxError != 0.10 {
		t.Errorf("defaults = %+v", cfg)
	}
}
