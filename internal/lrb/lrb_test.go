package lrb

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"smartflux/internal/engine"
	"smartflux/internal/kvstore"
	"smartflux/internal/workflow"
)

func TestSimulatorDeterministic(t *testing.T) {
	a := NewSimulator(Config{Seed: 5})
	b := NewSimulator(Config{Seed: 5})
	for w := 0; w < 20; w++ {
		a.Advance()
		b.Advance()
	}
	ra, rb := a.Reports(), b.Reports()
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("report %d diverged: %+v vs %+v", i, ra[i], rb[i])
		}
	}
}

func TestSimulatorInvariants(t *testing.T) {
	cfg := Config{Seed: 7}.withDefaults()
	sim := NewSimulator(cfg)
	for w := 0; w < 100; w++ {
		sim.Advance()
		for _, r := range sim.Reports() {
			if r.Speed < 0 {
				t.Fatalf("negative speed %v", r.Speed)
			}
			if r.Pos < 0 || r.Pos >= float64(cfg.Segments) {
				t.Fatalf("position %v outside [0,%d)", r.Pos, cfg.Segments)
			}
			if r.Segment < 0 || r.Segment >= cfg.Segments {
				t.Fatalf("segment %d out of range", r.Segment)
			}
			if r.Xway < 0 || r.Xway >= cfg.Expressways {
				t.Fatalf("xway %d out of range", r.Xway)
			}
		}
	}
}

func TestAccidentsScheduledAndStopVehicles(t *testing.T) {
	sim := NewSimulator(Config{Seed: 3})
	sim.ensureAccidents(600)
	if len(sim.accidents) < 3 {
		t.Fatalf("only %d accidents over 600 waves", len(sim.accidents))
	}
	// Run through the first accident and check some vehicles stop.
	first := sim.accidents[0]
	var sawStopped bool
	for w := 0; w <= first.start+first.duration && !sawStopped; w++ {
		sim.Advance()
		for _, r := range sim.Reports() {
			if r.Speed == 0 {
				sawStopped = true
				break
			}
		}
	}
	if !sawStopped {
		t.Error("no vehicle stopped during an accident")
	}
}

// refAdvance is Advance as it was before the per-wave accident grid, the
// rush factor hoisted out of the vehicle loop and the free-speed table:
// kept verbatim as the reference the simulator must reproduce bit for bit.
func refAdvance(s *Simulator) int {
	wave := s.wave
	s.ensureAccidents(wave)
	for i := range s.vehicles {
		v := &s.vehicles[i]
		segment := int(v.pos) % s.cfg.Segments

		target := freeSpeed(segment)
		target *= 1 - 0.45*rushFactor(wave)
		if refActiveAccident(s, wave, v.xway, segment) {
			target *= 0.15
			// A few vehicles stop entirely at the accident site.
			if v.stopped == 0 && s.rng.Float64() < 0.05 {
				v.stopped = 4 + s.rng.Intn(8)
			}
		} else {
			prev := (segment + s.cfg.Segments - 1) % s.cfg.Segments
			if refActiveAccident(s, wave, v.xway, prev) {
				target *= 0.5
			}
		}

		if v.stopped > 0 {
			v.stopped--
			v.speed = 0
		} else {
			v.speed += 0.35*(target-v.speed) + s.rng.NormFloat64()*2
			if v.speed < 0 {
				v.speed = 0
			}
		}
		// 30 s at v mph advances v/120 miles; one segment is one mile.
		v.pos += v.speed / 120
		for v.pos >= float64(s.cfg.Segments) {
			v.pos -= float64(s.cfg.Segments)
		}
	}
	s.wave++
	return wave
}

func refActiveAccident(s *Simulator, wave, xway, segment int) bool {
	s.ensureAccidents(wave)
	for _, a := range s.accidents {
		if wave >= a.start && wave < a.start+a.duration &&
			a.xway == xway && a.segment == segment {
			return true
		}
	}
	return false
}

// TestAdvanceMatchesPerVehicleScan holds Advance to refAdvance over enough
// waves for dozens of accidents, on a small network where the vehicles crowd
// every site: the same vehicles, float bits included, and the same schedule.
func TestAdvanceMatchesPerVehicleScan(t *testing.T) {
	cfg := Config{Seed: 11, Expressways: 2, Segments: 3, Vehicles: 60}
	sim, ref := NewSimulator(cfg), NewSimulator(cfg)
	var stopped int
	for wave := 0; wave < 3000; wave++ {
		sim.Advance()
		refAdvance(ref)
		for i, v := range sim.vehicles {
			if r := ref.vehicles[i]; v.xway != r.xway || v.stopped != r.stopped ||
				math.Float64bits(v.pos) != math.Float64bits(r.pos) ||
				math.Float64bits(v.speed) != math.Float64bits(r.speed) {
				t.Fatalf("wave %d vehicle %d: %+v, reference %+v", wave, i, v, r)
			}
			if v.stopped > 0 {
				stopped++
			}
		}
		if !slices.Equal(sim.accidents, ref.accidents) {
			t.Fatalf("wave %d: schedule %v, reference %v", wave, sim.accidents, ref.accidents)
		}
	}
	if len(sim.accidents) < 20 || stopped < 100 {
		t.Fatalf("weak run: %d accidents, %d stopped vehicle-waves", len(sim.accidents), stopped)
	}
}

func TestRushFactorCycle(t *testing.T) {
	if rushFactor(0) != 0 {
		t.Errorf("rushFactor(0) = %v", rushFactor(0))
	}
	peak := rushFactor(60) // quarter cycle
	if peak < 0.9 {
		t.Errorf("rush peak %v", peak)
	}
	if rushFactor(180) != 0 {
		t.Error("negative half-cycle must clamp to 0")
	}
}

func TestQueriesDeterministic(t *testing.T) {
	a := NewSimulator(Config{Seed: 5})
	b := NewSimulator(Config{Seed: 5})
	a.Advance()
	b.Advance()
	qa, qb := a.Queries(0), b.Queries(0)
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatal("queries diverged")
		}
	}
	if want := (Config{}).withDefaults().QueriesPerWave; len(qa) != want {
		t.Errorf("query count %d, want %d", len(qa), want)
	}
}

func TestBuildWorkflowStructure(t *testing.T) {
	wf, _, err := Build(Config{Seed: 1})()
	if err != nil {
		t.Fatal(err)
	}
	if order, err := wf.Order(); err != nil || len(order) != 9 {
		t.Errorf("%d steps (%v), want 9 (Figure 5)", len(order), err)
	}
	gated, err := wf.GatedSteps()
	if err != nil {
		t.Fatal(err)
	}
	if len(gated) != 6 {
		t.Errorf("gated = %v", gated)
	}
	// Step 4 joins 3a, 3b, 3c.
	preds := wf.Predecessors(StepCongestion)
	if len(preds) != 3 {
		t.Errorf("congestion predecessors = %v", preds)
	}
	// 5b reads queries and congestion; it is synchronous (not gated).
	travel, err := wf.Step(StepTravelTime)
	if err != nil {
		t.Fatal(err)
	}
	if travel.Gated() {
		t.Error("travel time must not be gated (real-time replies)")
	}
}

func TestWorkflowEndToEnd(t *testing.T) {
	wf, store, err := Build(Config{Seed: 1, Vehicles: 300})()
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
	for _, name := range []string{
		TableReports, TableQueries, TablePositions, TableSpeeds,
		TableCounts, TableAccidents, TableCongestion, TableClasses,
		TableQueryProc, TableEstimates,
	} {
		tbl, err := store.Table(name)
		if err != nil {
			t.Fatalf("table %s missing: %v", name, err)
		}
		if len(tbl.Scan(kvstore.ScanOptions{})) == 0 {
			t.Errorf("table %s empty after 3 sync waves", name)
		}
	}
	classes, _ := store.Table(TableClasses)
	high, ok := classes.GetFloat("x0", "high")
	if !ok || high < 5 {
		t.Errorf("classify output = %v, %v", high, ok)
	}
}

// TestPerSegmentMatchesPerCellLookups pins perSegment's one-pass read to the
// per-cell lookups it replaced — a scan of the seg cells, then GetFloat of
// xway and speed — fold for fold, over rows that straddle scan pages and rows
// missing a column or holding a value that is not a float.
func TestPerSegmentMatchesPerCellLookups(t *testing.T) {
	cfg := Config{}.withDefaults()
	positions, err := kvstore.New().CreateTable(TablePositions, kvstore.TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := kvstore.NewBatch()
	for i := 0; i < 400; i++ {
		row := vehRow(i)
		if i%7 != 3 {
			b.PutFloat(row, "seg", float64(i%25-2)) // negatives clamp to segment 0
		}
		if i%11 != 5 {
			b.PutFloat(row, "speed", float64(i)/3)
		}
		if i%13 != 8 {
			b.PutFloat(row, "xway", float64(i%3))
		}
	}
	b.Put(vehRow(1), "seg", []byte("not a float"))
	b.Put(vehRow(2), "xway", []byte{1})
	b.PutFloat(vehRow(4), "xway", float64(cfg.Expressways)) // out of range: skipped
	if err := positions.Apply(b); err != nil {
		t.Fatal(err)
	}
	type folded struct {
		xway, seg int
		speed     float64
	}
	var want, got []folded
	for _, c := range positions.Scan(kvstore.ScanOptions{ColumnPrefix: "seg"}) {
		seg, ok := c.FloatValue()
		if !ok {
			continue
		}
		xway, _ := positions.GetFloat(c.Row, "xway")
		speed, _ := positions.GetFloat(c.Row, "speed")
		if int(xway) >= cfg.Expressways {
			continue
		}
		want = append(want, folded{int(xway), max(int(seg), 0) % cfg.Segments, speed})
	}
	perSegment(positions, cfg, func(xway, seg int, speed float64) {
		got = append(got, folded{xway, seg, speed})
	})
	if !slices.Equal(got, want) {
		t.Fatalf("perSegment folded %d rows, per-cell lookups %d:\n got %v\nwant %v", len(got), len(want), got, want)
	}
}

// TestPositionsMatchesPerCellLookups pins step 2a's one-pass read of the
// reports to the lookups it replaced — a scan of the pos cells, then GetFloat
// of speed and xway — write for write, over rows that straddle scan pages and
// rows missing a column or holding a value that is not a float.
func TestPositionsMatchesPerCellLookups(t *testing.T) {
	build := func() (store *kvstore.Store, reports, positions *kvstore.Table) {
		store = kvstore.New()
		reports, err := store.CreateTable(TableReports, kvstore.TableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		positions, err = store.CreateTable(TablePositions, kvstore.TableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b, prev := kvstore.NewBatch(), kvstore.NewBatch()
		for i := 0; i < 400; i++ {
			row := vehRow(i)
			if i%7 != 3 {
				b.PutFloat(row, "pos", float64(i%25)+0.5)
			}
			if i%11 != 5 {
				b.PutFloat(row, "speed", float64(i)/3)
			}
			if i%13 != 8 {
				b.PutFloat(row, "xway", float64(i%3))
			}
			if i%5 == 0 {
				prev.PutFloat(row, "speed", float64(i))
			}
		}
		b.Put(vehRow(1), "pos", []byte("not a float"))
		b.Put(vehRow(2), "speed", []byte{1})
		b.Put(vehRow(4), "xway", []byte("x"))
		if err := reports.Apply(b); err != nil {
			t.Fatal(err)
		}
		if err := positions.Apply(prev); err != nil {
			t.Fatal(err)
		}
		return store, reports, positions
	}

	got, _, _ := build()
	if err := positionsProc().Process(&workflow.Context{Store: got}); err != nil {
		t.Fatal(err)
	}
	want, reports, positions := build()
	b := kvstore.NewBatch()
	for _, c := range reports.Scan(kvstore.ScanOptions{ColumnPrefix: "pos"}) {
		pos, ok := c.FloatValue()
		if !ok {
			continue
		}
		speed, _ := reports.GetFloat(c.Row, "speed")
		xway, _ := reports.GetFloat(c.Row, "xway")
		smoothed := speed
		if prev, ok := positions.GetFloat(c.Row, "speed"); ok {
			smoothed = 0.5*prev + 0.5*speed
		}
		b.PutFloat(c.Row, "xway", xway).PutFloat(c.Row, "seg", math.Floor(pos)).PutFloat(c.Row, "speed", smoothed)
	}
	if err := positions.Apply(b); err != nil {
		t.Fatal(err)
	}
	if g, w := string(got.Dump()), string(want.Dump()); g != w {
		t.Fatalf("one-pass 2a wrote a different store than per-cell lookups:\n got %d dump bytes\nwant %d", len(g), len(w))
	}
}

// pagedFoldRows is foldRows as it was before the projected read: a fold
// over the table's cells in (row, column) order, which the old paged scan
// handed out page by page and Scan returns whole.
func pagedFoldRows(t *kvstore.Table, cols [3]string, fold func(row string, v [3]float64)) {
	var v [3]float64
	row, has := "", false
	flush := func() {
		if has {
			fold(row, v)
		}
		v, has = [3]float64{}, false
	}
	for _, c := range t.Scan(kvstore.ScanOptions{}) {
		if c.Row != row {
			flush()
			row = c.Row
		}
		if i := slices.Index(cols[:], c.Column); i >= 0 {
			var ok bool
			v[i], ok = c.FloatValue()
			if i == 0 {
				has = ok
			}
		}
	}
	flush()
}

// TestFoldRowsMatchesPagedFold pins the projected-read folds to the paged
// fold they replaced, over seeded reports and positions tables: foldRows
// over both tables row for row, and step 2a's output cell for cell against
// the paged fold plus a GetFloat of each vehicle's previous speed. The tables hold rows without cols[0], cells that
// are not floats, vehicles with no previous position and positions rows no
// report names.
func TestFoldRowsMatchesPagedFold(t *testing.T) {
	type folded struct {
		row string
		v   [3]float64
	}
	for seed := int64(1); seed <= 5; seed++ {
		build := func() (store *kvstore.Store, reports, positions *kvstore.Table) {
			rng := rand.New(rand.NewSource(seed))
			store = kvstore.New()
			reports, err := store.CreateTable(TableReports, kvstore.TableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			positions, err = store.CreateTable(TablePositions, kvstore.TableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			cell := func(b *kvstore.Batch, row, col string) {
				switch rng.Intn(12) {
				case 0: // missing
				case 1:
					b.Put(row, col, []byte("not a float"))
				default:
					b.PutFloat(row, col, rng.Float64()*12-1)
				}
			}
			rb, pb := kvstore.NewBatch(), kvstore.NewBatch()
			for i := 0; i < 500; i++ {
				row := vehRow(i)
				for _, col := range reportCols {
					cell(rb, row, col)
				}
				if rng.Intn(4) != 0 { // else no previous position
					for _, col := range segmentCols {
						cell(pb, row, col)
					}
				}
				if rng.Intn(20) == 0 {
					pb.PutFloat(row+"-gone", "speed", 1) // a row no report names
				}
			}
			if err := reports.Apply(rb); err != nil {
				t.Fatal(err)
			}
			if err := positions.Apply(pb); err != nil {
				t.Fatal(err)
			}
			return store, reports, positions
		}

		_, reports, positions := build()
		for _, tc := range []struct {
			table *kvstore.Table
			cols  []string
		}{{reports, reportCols}, {positions, segmentCols}, {positions, speedCol}} {
			var want, got []folded
			var cols [3]string
			copy(cols[:], tc.cols)
			pagedFoldRows(tc.table, cols, func(row string, v [3]float64) { want = append(want, folded{row, v}) })
			foldRows(tc.table, tc.cols, func(row string, v []float64) {
				var f folded
				f.row = row
				copy(f.v[:], v)
				got = append(got, f)
			})
			if len(want) < 100 || !slices.Equal(got, want) {
				t.Fatalf("seed %d, %s %q: foldRows folded %d rows, the paged fold %d", seed, tc.table.Name(), tc.cols, len(got), len(want))
			}
		}

		got, _, _ := build()
		if err := positionsProc().Process(&workflow.Context{Store: got}); err != nil {
			t.Fatal(err)
		}
		want, reports, positions := build()
		b := kvstore.NewBatch()
		pagedFoldRows(reports, [3]string{"pos", "speed", "xway"}, func(row string, v [3]float64) {
			pos, speed, xway := v[0], v[1], v[2]
			smoothed := speed
			if prev, ok := positions.GetFloat(row, "speed"); ok {
				smoothed = 0.5*prev + 0.5*speed
			}
			b.PutFloat(row, "xway", xway)
			b.PutFloat(row, "seg", math.Floor(pos))
			b.PutFloat(row, "speed", smoothed)
		})
		if err := positions.Apply(b); err != nil {
			t.Fatal(err)
		}
		if g, w := string(got.Dump()), string(want.Dump()); g != w {
			t.Fatalf("seed %d: 2a wrote a different store than the paged fold:\n got %d dump bytes\nwant %d", seed, len(g), len(w))
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Expressways != 3 || cfg.Segments != 10 || cfg.Vehicles != 1200 ||
		cfg.QueriesPerWave != 15 || cfg.MaxError != 0.10 {
		t.Errorf("defaults = %+v", cfg)
	}
}
