// Package lrb implements the Linear Road Benchmark workload of paper §5.1
// (Figure 5): a variable tolling system for a fictional urban expressway
// network. Vehicles emit position reports every 30 seconds (one wave); the
// workflow derives per-segment statistics (average speed, vehicle counts,
// accidents), computes congestion/toll levels and classifies congestion
// areas, while a synchronous side chain answers historical travel-time
// queries.
//
// The paper feeds LRB from MIT-SIMLab traces, which are not redistributable;
// this package substitutes a deterministic microscopic traffic simulator
// with the same signal structure: slowly drifting per-segment aggregates
// punctuated by rush-hour congestion waves and accident events (see
// DESIGN.md §1).
package lrb

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"smartflux/internal/engine"
	"smartflux/internal/kvstore"
	"smartflux/internal/metric"
	"smartflux/internal/workflow"
)

// Table names used by the workflow's data containers.
const (
	TableReports    = "lrb_reports"
	TableQueries    = "lrb_queries"
	TablePositions  = "lrb_positions"
	TableSpeeds     = "lrb_speeds"
	TableCounts     = "lrb_counts"
	TableAccidents  = "lrb_accidents"
	TableCongestion = "lrb_congestion"
	TableClasses    = "lrb_classes"
	TableQueryProc  = "lrb_queryproc"
	TableEstimates  = "lrb_estimates"
)

// Step IDs (Figure 5).
const (
	StepFeeder     workflow.StepID = "1-feeder"
	StepPositions  workflow.StepID = "2a-positions"
	StepQueries    workflow.StepID = "2b-queries"
	StepAvgSpeed   workflow.StepID = "3a-avgspeed"
	StepCarCount   workflow.StepID = "3b-count"
	StepAccidents  workflow.StepID = "3c-accidents"
	StepCongestion workflow.StepID = "4-congestion"
	StepClassify   workflow.StepID = "5a-classify"
	StepTravelTime workflow.StepID = "5b-traveltime"
)

// Config parameterizes the workload.
type Config struct {
	// Expressways is the number of expressways (default 3).
	Expressways int
	// Segments is the number of segments per expressway (default 10).
	Segments int
	// Vehicles is the total vehicle count (default 1200).
	Vehicles int
	// QueriesPerWave is the number of historical queries issued per wave
	// (default 15).
	QueriesPerWave int
	// MaxError is maxε applied to every gated step (default 0.10).
	MaxError float64
	// Seed drives the traffic simulation.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Expressways <= 0 {
		c.Expressways = 3
	}
	if c.Segments <= 0 {
		c.Segments = 10
	}
	if c.Vehicles <= 0 {
		c.Vehicles = 1200
	}
	if c.QueriesPerWave <= 0 {
		c.QueriesPerWave = 15
	}
	if c.MaxError <= 0 {
		c.MaxError = 0.10
	}
	return c
}

// vehicle is one simulated car on a circular expressway.
type vehicle struct {
	xway    int
	pos     float64 // miles, wraps at Segments
	speed   float64 // mph
	stopped int     // waves remaining stopped (accident participant)
}

// accident is one scheduled incident.
type accident struct {
	start, duration int
	xway, segment   int
}

// Simulator advances a deterministic traffic microsimulation one wave
// (30 simulated seconds) at a time.
type Simulator struct {
	cfg       Config
	rng       *rand.Rand
	accRng    *rand.Rand
	vehicles  []vehicle
	accidents []accident
	wave      int
	free      []float64 // free[segment] is freeSpeed(segment)
	// blocked[xway*Segments+segment] marks an active accident in the wave
	// being advanced (activeAccident).
	blocked []bool
}

// NewSimulator creates a simulator with deterministic initial placement.
func NewSimulator(cfg Config) *Simulator {
	cfg = cfg.withDefaults()
	s := &Simulator{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		accRng:  rand.New(rand.NewSource(cfg.Seed + 1)),
		free:    make([]float64, cfg.Segments),
		blocked: make([]bool, cfg.Expressways*cfg.Segments),
	}
	for seg := range s.free {
		s.free[seg] = freeSpeed(seg)
	}
	s.vehicles = make([]vehicle, cfg.Vehicles)
	for i := range s.vehicles {
		s.vehicles[i] = vehicle{
			xway:  i % cfg.Expressways,
			pos:   s.rng.Float64() * float64(cfg.Segments),
			speed: 45 + s.rng.Float64()*20,
		}
	}
	return s
}

// ensureAccidents extends the deterministic accident schedule past wave.
func (s *Simulator) ensureAccidents(wave int) {
	for {
		next := 60
		if n := len(s.accidents); n > 0 {
			last := s.accidents[n-1]
			next = last.start + last.duration + 20 + s.accRng.Intn(80)
		}
		if len(s.accidents) > 0 && next > wave {
			return
		}
		s.accidents = append(s.accidents, accident{
			start:    next,
			duration: 12 + s.accRng.Intn(28),
			xway:     s.accRng.Intn(s.cfg.Expressways),
			segment:  s.accRng.Intn(s.cfg.Segments),
		})
	}
}

// activeAccident reports whether (xway, segment) has an active accident.
// It extends the schedule first, as it always has: once one accident is
// scheduled every extension draws from accRng, and may schedule another
// that starts by wave, so how often it is called is part of the stream.
func (s *Simulator) activeAccident(wave, xway, segment int) bool {
	n := len(s.accidents)
	s.ensureAccidents(wave)
	s.markAccidents(wave, n)
	return s.blocked[xway*s.cfg.Segments+segment]
}

// markAccidents marks in blocked the sites of the accidents from index from
// on that are active at wave. Accidents are scheduled in start order and
// each ends before the next starts, so the walk back from the latest stops
// at the first one that is over.
func (s *Simulator) markAccidents(wave, from int) {
	for i := len(s.accidents) - 1; i >= from; i-- {
		a := s.accidents[i]
		if wave >= a.start+a.duration {
			return
		}
		if wave >= a.start {
			s.blocked[a.xway*s.cfg.Segments+a.segment] = true
		}
	}
}

// rushFactor is the time-of-day congestion multiplier in [0, 1]: 0 at free
// flow, approaching 1 at rush peaks. One rush cycle spans 240 waves (2 h).
func rushFactor(wave int) float64 {
	v := math.Sin(2 * math.Pi * float64(wave) / 240)
	if v < 0 {
		return 0
	}
	return v * v
}

// freeSpeed is the free-flow speed profile per segment.
func freeSpeed(segment int) float64 {
	return 55 + 10*math.Sin(float64(segment))
}

// Advance moves the simulation forward one wave and returns the wave index
// just simulated.
func (s *Simulator) Advance() int {
	wave := s.wave
	s.ensureAccidents(wave)
	clear(s.blocked)
	s.markAccidents(wave, 0)
	rush := 1 - 0.45*rushFactor(wave)
	for i := range s.vehicles {
		v := &s.vehicles[i]
		segment := int(v.pos) % s.cfg.Segments

		target := s.free[segment]
		target *= rush
		if s.activeAccident(wave, v.xway, segment) {
			target *= 0.15
			// A few vehicles stop entirely at the accident site.
			if v.stopped == 0 && s.rng.Float64() < 0.05 {
				v.stopped = 4 + s.rng.Intn(8)
			}
		} else {
			prev := (segment + s.cfg.Segments - 1) % s.cfg.Segments
			if s.activeAccident(wave, v.xway, prev) {
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

// Report is one vehicle position report.
type Report struct {
	Vehicle int
	Xway    int
	Segment int
	Pos     float64
	Speed   float64
}

// Reports returns the current position reports of all vehicles.
func (s *Simulator) Reports() []Report {
	out := make([]Report, len(s.vehicles))
	for i, v := range s.vehicles {
		out[i] = Report{
			Vehicle: i,
			Xway:    v.xway,
			Segment: int(v.pos) % s.cfg.Segments,
			Pos:     v.pos,
			Speed:   v.speed,
		}
	}
	return out
}

// Query is one historical travel-time query.
type Query struct {
	ID      int
	Xway    int
	FromSeg int
	ToSeg   int
}

// Queries returns this wave's historical query requests.
func (s *Simulator) Queries(wave int) []Query {
	out := make([]Query, s.cfg.QueriesPerWave)
	for i := range out {
		v := s.rng.Intn(len(s.vehicles))
		out[i] = Query{
			ID:      i,
			Xway:    s.vehicles[v].xway,
			FromSeg: int(s.vehicles[v].pos) % s.cfg.Segments,
			ToSeg:   s.rng.Intn(s.cfg.Segments),
		}
	}
	return out
}

// segRow renders the row key of (xway, segment).
func segRow(xway, segment int) string {
	return "x" + strconv.Itoa(xway) + ":s" + strconv.Itoa(segment)
}

// vehRow renders the row key of a vehicle.
func vehRow(id int) string { return "v" + strconv.Itoa(id) }

// rowKeys holds every row key the workflow writes, rendered once when it is
// built, so no wave renders one.
type rowKeys struct {
	vehicles []string // vehicles[id] is vehRow(id)
	queries  []string // queries[id] is the row of query id
	xways    []string // xways[x] is the classes row of expressway x
	// segments[x*Segments+s] is segRow(x, s): the per-segment folds
	// accumulate at the same index.
	segments []string
}

func newRowKeys(cfg Config) *rowKeys {
	k := &rowKeys{
		vehicles: make([]string, cfg.Vehicles),
		queries:  make([]string, cfg.QueriesPerWave),
		xways:    make([]string, cfg.Expressways),
		segments: make([]string, 0, cfg.Expressways*cfg.Segments),
	}
	for i := range k.vehicles {
		k.vehicles[i] = vehRow(i)
	}
	for i := range k.queries {
		k.queries[i] = "q" + strconv.Itoa(i)
	}
	for x := range k.xways {
		k.xways[x] = "x" + strconv.Itoa(x)
		for s := 0; s < cfg.Segments; s++ {
			k.segments = append(k.segments, segRow(x, s))
		}
	}
	return k
}

// Build returns an engine.BuildFunc producing fresh, identical instances of
// the LRB workload.
func Build(cfg Config) engine.BuildFunc {
	cfg = cfg.withDefaults()
	return func() (*workflow.Workflow, *kvstore.Store, error) {
		store := kvstore.New()
		sim := NewSimulator(cfg)
		wf, err := buildWorkflow(cfg, sim)
		if err != nil {
			return nil, nil, err
		}
		return wf, store, nil
	}
}

// gatedQoD builds the standard QoD annotation for gated LRB steps. LRB uses
// the absolute impact function (the paper's Figure 7 LRB impacts are
// unnormalized magnitudes) with relative output error, in accumulate mode.
func gatedQoD(cfg Config) workflow.QoD {
	return workflow.QoD{
		MaxError:   cfg.MaxError,
		ImpactFunc: metric.FuncAbsoluteImpact,
		ErrorFunc:  metric.FuncRelativeError,
		Mode:       metric.ModeAccumulate,
	}
}

// buildWorkflow wires the Figure 5 steps.
func buildWorkflow(cfg Config, sim *Simulator) (*workflow.Workflow, error) {
	wf := workflow.New("lrb")
	keys := newRowKeys(cfg)
	container := func(table string) workflow.Container {
		return workflow.Container{Table: table}
	}

	steps := []*workflow.Step{
		{
			// Step 1 receives, separates and stores position reports
			// and queries from vehicle transponders.
			ID:      StepFeeder,
			Source:  true,
			Outputs: []workflow.Container{container(TableReports), container(TableQueries)},
			Proc:    feederProc(sim, keys),
		},
		{
			// Step 2a updates vehicle positions across the
			// expressway system.
			ID:      StepPositions,
			Inputs:  []workflow.Container{container(TableReports)},
			Outputs: []workflow.Container{container(TablePositions)},
			QoD:     gatedQoD(cfg),
			Proc:    positionsProc(),
		},
		{
			// Step 2b processes and prioritizes queries; executed
			// synchronously (real-time replies).
			ID:      StepQueries,
			Inputs:  []workflow.Container{container(TableQueries)},
			Outputs: []workflow.Container{container(TableQueryProc)},
			Proc:    queriesProc(),
		},
		{
			// Step 3a: average vehicle speed per segment.
			ID:      StepAvgSpeed,
			Inputs:  []workflow.Container{{Table: TablePositions, ColumnPrefix: "speed"}},
			Outputs: []workflow.Container{container(TableSpeeds)},
			QoD:     gatedQoD(cfg),
			Proc:    avgSpeedProc(cfg, keys),
		},
		{
			// Step 3b: number of cars per segment.
			ID:      StepCarCount,
			Inputs:  []workflow.Container{{Table: TablePositions, ColumnPrefix: "seg"}},
			Outputs: []workflow.Container{container(TableCounts)},
			QoD:     gatedQoD(cfg),
			Proc:    carCountProc(cfg, keys),
		},
		{
			// Step 3c: accident detection (stopped vehicles).
			ID:      StepAccidents,
			Inputs:  []workflow.Container{{Table: TablePositions, ColumnPrefix: "speed"}},
			Outputs: []workflow.Container{container(TableAccidents)},
			QoD:     gatedQoD(cfg),
			Proc:    accidentsProc(cfg, keys),
		},
		{
			// Step 4: congestion (toll) level per segment.
			ID: StepCongestion,
			Inputs: []workflow.Container{
				container(TableSpeeds),
				container(TableCounts),
				container(TableAccidents),
			},
			Outputs: []workflow.Container{container(TableCongestion)},
			QoD:     gatedQoD(cfg),
			Proc:    congestionProc(cfg, keys),
		},
		{
			// Step 5a: classify congestion areas (workflow output).
			ID:      StepClassify,
			Inputs:  []workflow.Container{container(TableCongestion)},
			Outputs: []workflow.Container{container(TableClasses)},
			QoD:     gatedQoD(cfg),
			Proc:    classifyProc(cfg, keys),
		},
		{
			// Step 5b: travel time estimation; executed
			// synchronously (real-time replies).
			ID: StepTravelTime,
			Inputs: []workflow.Container{
				container(TableQueryProc),
				container(TableCongestion),
			},
			Outputs: []workflow.Container{container(TableEstimates)},
			Proc:    travelTimeProc(cfg, keys),
		},
	}
	for _, s := range steps {
		if err := wf.AddStep(s); err != nil {
			return nil, fmt.Errorf("lrb: %w", err)
		}
	}
	if err := wf.Finalize(); err != nil {
		return nil, fmt.Errorf("lrb: %w", err)
	}
	return wf, nil
}

// feederProc advances the simulation and writes reports and queries.
func feederProc(sim *Simulator, keys *rowKeys) workflow.Processor {
	return workflow.ProcessorFunc(func(ctx *workflow.Context) error {
		wave := sim.Advance()
		reports, err := ctx.Table(TableReports)
		if err != nil {
			return err
		}
		// The reports are written straight from the vehicles (Reports
		// would copy them first).
		err = reports.PutFloatRows(keys.vehicles, feederReportCols, func(vals []float64) {
			for i, v := range sim.vehicles {
				vals[3*i], vals[3*i+1], vals[3*i+2] = float64(v.xway), v.pos, v.speed
			}
		})
		if err != nil {
			return err
		}

		queries, err := ctx.Table(TableQueries)
		if err != nil {
			return err
		}
		qs := sim.Queries(wave) // qs[i].ID is i
		return queries.PutFloatRows(keys.queries, feederQueryCols, func(vals []float64) {
			for i, q := range qs {
				vals[3*i], vals[3*i+1], vals[3*i+2] = float64(q.Xway), float64(q.FromSeg), float64(q.ToSeg)
			}
		})
	})
}

// positionsProc smooths and republishes per-vehicle state.
func positionsProc() workflow.Processor {
	return workflow.ProcessorFunc(func(ctx *workflow.Context) error {
		reports, err := ctx.Table(TableReports)
		if err != nil {
			return err
		}
		out, err := ctx.Table(TablePositions)
		if err != nil {
			return err
		}
		// The previous smoothed speeds are one read of the output, merged
		// with the reports by row key: both list their rows in key order.
		out.ScanFloatRows(speedCol, func(prevRows []string, prev []float64, prevOK []bool) {
			j := 0
			err = mapRows(reports, reportCols, out, positionCols, func(row string, v, dst []float64) {
				pos, speed, xway := v[0], v[1], v[2]
				// Exponentially smoothed speed stabilizes the aggregate
				// statistics downstream, like LRB's 5-minute windows.
				smoothed := speed
				for j < len(prevRows) && prevRows[j] < row {
					j++
				}
				if j < len(prevRows) && prevRows[j] == row && prevOK[j] {
					smoothed = 0.5*prev[j] + 0.5*speed
				}
				dst[0], dst[1], dst[2] = xway, math.Floor(pos), smoothed
			})
		})
		return err
	})
}

// queriesProc parses and prioritizes query requests.
func queriesProc() workflow.Processor {
	return workflow.ProcessorFunc(func(ctx *workflow.Context) error {
		queries, err := ctx.Table(TableQueries)
		if err != nil {
			return err
		}
		out, err := ctx.Table(TableQueryProc)
		if err != nil {
			return err
		}
		return mapRows(queries, queryCols, out, queryProcCols, func(_ string, v, dst []float64) {
			from, to, xway := v[0], v[1], v[2]
			span := to - from
			if span < 0 {
				span = -span
			}
			dst[0], dst[1], dst[2], dst[3] = xway, from, to, span
		})
	})
}

// The column sets the steps read, in the order their folds take them.
var (
	reportCols  = []string{"pos", "speed", "xway"}
	queryCols   = []string{"from", "to", "xway"}
	segmentCols = []string{"seg", "speed", "xway"}
	speedCol    = []string{"speed"}
)

// The column sets the steps write, in the order each row's cells are
// stamped.
var (
	feederReportCols = []string{"xway", "pos", "speed"}
	feederQueryCols  = []string{"xway", "from", "to"}
	positionCols     = []string{"xway", "seg", "speed"}
	queryProcCols    = []string{"xway", "from", "to", "span"}
	estimateCols     = []string{"minutes", "cost"}
	avgCol           = []string{"avg"}
	countCol         = []string{"count"}
	stoppedCol       = []string{"stopped"}
	levelCol         = []string{"level"}
	classCols        = []string{"high", "avg"}
)

// foldRows reads cols of t in one projected read (Table.ScanFloatRows) and
// calls fold once per row, in key order, with the row's float values of
// cols; a missing or non-float cell reads 0. A row without a float cols[0]
// is skipped. fold must not retain v.
func foldRows(t *kvstore.Table, cols []string, fold func(row string, v []float64)) {
	n := len(cols)
	t.ScanFloatRows(cols, func(rows []string, vals []float64, ok []bool) {
		for i, row := range rows {
			if ok[i*n] {
				fold(row, vals[i*n:(i+1)*n])
			}
		}
	})
}

// mapRows reads inCols of in in one projected read and writes outCols of
// out in one grid write (Table.PutFloatRows): one output row per input row
// with a float inCols[0], under the same key, in key order. It calls fn once
// per such row with the row's float values of inCols (a missing or non-float
// cell reads 0) and the row's slots of the grid, which fn fills. A filtered
// row list is built only when a row is skipped. fn must not retain v or dst.
func mapRows(in *kvstore.Table, inCols []string, out *kvstore.Table, outCols []string, fn func(row string, v, dst []float64)) error {
	n, m := len(inCols), len(outCols)
	var err error
	in.ScanFloatRows(inCols, func(rows []string, vals []float64, ok []bool) {
		kept := rows
		for i := range rows {
			if !ok[i*n] {
				kept = make([]string, 0, len(rows))
				for i, row := range rows {
					if ok[i*n] {
						kept = append(kept, row)
					}
				}
				break
			}
		}
		err = out.PutFloatRows(kept, outCols, func(dst []float64) {
			k := 0
			for i, row := range rows {
				if ok[i*n] {
					fn(row, vals[i*n:(i+1)*n], dst[k*m:(k+1)*m])
					k++
				}
			}
		})
	})
	return err
}

// perSegment folds the positions table into per-(xway, segment) aggregates,
// once per row with a float seg and an xway in range (a missing xway or speed
// reads 0).
func perSegment(positions *kvstore.Table, cfg Config, fold func(xway, seg int, speed float64)) {
	foldRows(positions, segmentCols, func(_ string, v []float64) {
		if x := int(v[2]); x >= 0 && x < cfg.Expressways {
			fold(x, max(int(v[0]), 0)%cfg.Segments, v[1])
		}
	})
}

// avgSpeedProc computes the mean vehicle speed per segment.
func avgSpeedProc(cfg Config, keys *rowKeys) workflow.Processor {
	return workflow.ProcessorFunc(func(ctx *workflow.Context) error {
		positions, err := ctx.Table(TablePositions)
		if err != nil {
			return err
		}
		out, err := ctx.Table(TableSpeeds)
		if err != nil {
			return err
		}
		sums := make([]float64, len(keys.segments))
		counts := make([]int, len(keys.segments))
		perSegment(positions, cfg, func(xway, seg int, speed float64) {
			sums[xway*cfg.Segments+seg] += speed
			counts[xway*cfg.Segments+seg]++
		})
		return out.PutFloatRows(keys.segments, avgCol, func(avg []float64) {
			for i, n := range counts {
				if n > 0 {
					avg[i] = sums[i] / float64(n)
				} else {
					avg[i] = freeSpeed(i % cfg.Segments)
				}
			}
		})
	})
}

// carCountProc counts vehicles per segment.
func carCountProc(cfg Config, keys *rowKeys) workflow.Processor {
	return workflow.ProcessorFunc(func(ctx *workflow.Context) error {
		positions, err := ctx.Table(TablePositions)
		if err != nil {
			return err
		}
		out, err := ctx.Table(TableCounts)
		if err != nil {
			return err
		}
		counts := make([]int, len(keys.segments))
		perSegment(positions, cfg, func(xway, seg int, _ float64) {
			counts[xway*cfg.Segments+seg]++
		})
		return out.PutFloatRows(keys.segments, countCol, func(smoothed []float64) {
			for i, row := range keys.segments {
				// Exponential smoothing stands in for LRB's per-minute
				// windows: instantaneous per-30s counts churn as vehicles
				// cross segment boundaries.
				count := float64(counts[i])
				if prev, ok := out.GetFloat(row, "count"); ok {
					count = 0.9*prev + 0.1*count
				}
				smoothed[i] = count
			}
		})
	})
}

// accidentsProc detects accidents from stopped vehicles. The stored value is
// 1 + the number of stopped vehicles so calm segments hold a stable nonzero
// baseline (relative errors stay finite).
func accidentsProc(cfg Config, keys *rowKeys) workflow.Processor {
	return workflow.ProcessorFunc(func(ctx *workflow.Context) error {
		positions, err := ctx.Table(TablePositions)
		if err != nil {
			return err
		}
		out, err := ctx.Table(TableAccidents)
		if err != nil {
			return err
		}
		stopped := make([]int, len(keys.segments))
		perSegment(positions, cfg, func(xway, seg int, speed float64) {
			if speed < 1 {
				stopped[xway*cfg.Segments+seg]++
			}
		})
		return out.PutFloatRows(keys.segments, stoppedCol, func(vals []float64) {
			for i, n := range stopped {
				vals[i] = 1 + float64(n)
			}
		})
	})
}

// congestionProc computes the congestion (toll) level per segment from
// average speed, vehicle count and nearby accidents.
func congestionProc(cfg Config, keys *rowKeys) workflow.Processor {
	capacity := float64(cfg.Vehicles) / float64(cfg.Expressways*cfg.Segments)
	return workflow.ProcessorFunc(func(ctx *workflow.Context) error {
		speeds, err := ctx.Table(TableSpeeds)
		if err != nil {
			return err
		}
		counts, err := ctx.Table(TableCounts)
		if err != nil {
			return err
		}
		accidents, err := ctx.Table(TableAccidents)
		if err != nil {
			return err
		}
		out, err := ctx.Table(TableCongestion)
		if err != nil {
			return err
		}
		return out.PutFloatRows(keys.segments, levelCol, func(levels []float64) {
			for i, row := range keys.segments {
				avg, _ := speeds.GetFloat(row, "avg")
				count, _ := counts.GetFloat(row, "count")
				stopped, _ := accidents.GetFloat(row, "stopped")
				if avg < 5 {
					avg = 5
				}
				density := count / capacity
				slowdown := freeSpeed(i%cfg.Segments) / avg
				level := 10 * density * slowdown
				if stopped > 1 {
					level *= 1 + 0.5*(stopped-1)
				}
				levels[i] = level
			}
		})
	})
}

// classifyProc classifies congestion into low/medium/high areas and emits
// the per-expressway summary that constitutes the workflow output.
func classifyProc(cfg Config, keys *rowKeys) workflow.Processor {
	return workflow.ProcessorFunc(func(ctx *workflow.Context) error {
		congestion, err := ctx.Table(TableCongestion)
		if err != nil {
			return err
		}
		out, err := ctx.Table(TableClasses)
		if err != nil {
			return err
		}
		return out.PutFloatRows(keys.xways, classCols, func(vals []float64) {
			for x := range keys.xways {
				var high, sum float64
				for _, seg := range keys.segments[x*cfg.Segments : (x+1)*cfg.Segments] {
					level, _ := congestion.GetFloat(seg, "level")
					sum += level
					// Saturating membership in the "high congestion"
					// class keeps the output slowly varying (§1).
					high += level * level / (level*level + 400)
				}
				vals[2*x], vals[2*x+1] = 5+high, 10+sum/float64(cfg.Segments)
			}
		})
	})
}

// travelTimeProc estimates travel time and cost for each processed query
// using current congestion levels.
func travelTimeProc(cfg Config, keys *rowKeys) workflow.Processor {
	return workflow.ProcessorFunc(func(ctx *workflow.Context) error {
		queryProc, err := ctx.Table(TableQueryProc)
		if err != nil {
			return err
		}
		congestion, err := ctx.Table(TableCongestion)
		if err != nil {
			return err
		}
		out, err := ctx.Table(TableEstimates)
		if err != nil {
			return err
		}
		return mapRows(queryProc, queryCols, out, estimateCols, func(_ string, v, dst []float64) {
			from, to, xway := v[0], v[1], v[2]
			var minutes, cost float64
			step := 1
			if to < from {
				step = -1
			}
			for s := int(from); s != int(to); s += step {
				seg := ((s % cfg.Segments) + cfg.Segments) % cfg.Segments
				// Congestion has no row for an xway out of range.
				var level float64
				if x := int(xway); x >= 0 && x < cfg.Expressways {
					level, _ = congestion.GetFloat(keys.segments[x*cfg.Segments+seg], "level")
				}
				// One mile at a congestion-dependent speed.
				speed := freeSpeed(seg) / (1 + level/10)
				if speed < 5 {
					speed = 5
				}
				minutes += 60 / speed
				cost += level / 10
			}
			dst[0], dst[1] = minutes, cost
		})
	})
}
