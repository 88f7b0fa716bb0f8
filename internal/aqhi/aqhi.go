// Package aqhi implements the Air Quality Health Index workload of paper
// §5.1 (Figure 6): a grid of detectors, each with three sensors measuring
// Ozone (O3), fine particulate matter (PM2.5) and nitrogen dioxide (NO2),
// feeding a five-step workflow that computes a health-risk index for the
// region. Sensor readings follow smooth spatio-temporal generating functions
// in [0, 100], one wave per hour (168 waves per simulated week), as the
// paper describes.
package aqhi

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
	TableSensors       = "aqhi_sensors"
	TableConcentration = "aqhi_concentration"
	TableZones         = "aqhi_zones"
	TableInterp        = "aqhi_interp"
	TableHotspots      = "aqhi_hotspots"
	TableIndex         = "aqhi_index"
)

// Step IDs (Figure 6).
const (
	StepIngest        workflow.StepID = "1-ingest"
	StepConcentration workflow.StepID = "2-concentration"
	StepZones         workflow.StepID = "3a-zones"
	StepInterp        workflow.StepID = "3b-interp"
	StepHotspots      workflow.StepID = "4-hotspots"
	StepIndex         workflow.StepID = "5-index"
)

// Config parameterizes the workload.
type Config struct {
	// GridSize is the detector grid edge (GridSize² detectors, default 12).
	GridSize int
	// ZoneSize is the edge of a zone in detectors (default 3).
	ZoneSize int
	// HotspotReference is the zone concentration above which a zone is a
	// hotspot (default 40).
	HotspotReference float64
	// MaxError is maxε applied to every gated step (default 0.10).
	MaxError float64
	// Seed drives the sensor noise.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.GridSize <= 0 {
		c.GridSize = 12
	}
	if c.ZoneSize <= 0 {
		c.ZoneSize = 3
	}
	if c.HotspotReference <= 0 {
		c.HotspotReference = 40
	}
	if c.MaxError <= 0 {
		c.MaxError = 0.10
	}
	return c
}

// Generator produces deterministic sensor readings: a calm baseline (gentle
// diurnal harmonics, a spatial gradient, small seeded noise) punctuated by
// pollution episodes — smoothly ramping plumes that sweep part of the grid
// for a stretch of hours. The episodic shape matches the paper's target
// application class: the workflow output changes slowly most of the time,
// with bursts of significant change (§1, §2.4).
type Generator struct {
	cfg      Config
	rng      *rand.Rand // per-reading noise
	episodes []episode
	epRng    *rand.Rand // episode schedule
}

// episode is one pollution event: a Gaussian plume with a sinusoidal
// intensity envelope, drifting across the grid.
type episode struct {
	start, duration int
	cx, cy          float64
	vx, vy          float64
	intensity       float64
	radius          float64
}

// NewGenerator creates a generator for the configured grid.
func NewGenerator(cfg Config) *Generator {
	cfg = cfg.withDefaults()
	return &Generator{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		epRng: rand.New(rand.NewSource(cfg.Seed + 1)),
	}
}

// ensureEpisodes extends the deterministic episode schedule to cover wave.
func (g *Generator) ensureEpisodes(wave int) {
	for {
		next := 20
		if n := len(g.episodes); n > 0 {
			last := g.episodes[n-1]
			next = last.start + last.duration + 8 + g.epRng.Intn(30)
		}
		if len(g.episodes) > 0 && next > wave {
			return
		}
		grid := float64(g.cfg.GridSize)
		ep := episode{
			start:     next,
			duration:  16 + g.epRng.Intn(26),
			cx:        g.epRng.Float64() * grid,
			cy:        g.epRng.Float64() * grid,
			vx:        (g.epRng.Float64() - 0.5) * 0.4,
			vy:        (g.epRng.Float64() - 0.5) * 0.4,
			intensity: 18 + g.epRng.Float64()*14,
			radius:    2.5 + g.epRng.Float64()*2.5,
		}
		g.episodes = append(g.episodes, ep)
	}
}

// episodeBoost sums active episode contributions at detector (x, y).
func (g *Generator) episodeBoost(wave, x, y int) float64 {
	g.ensureEpisodes(wave)
	var boost float64
	for _, ep := range g.episodes {
		if wave < ep.start || wave >= ep.start+ep.duration {
			continue
		}
		t := float64(wave-ep.start) / float64(ep.duration)
		envelope := math.Sin(math.Pi * t)
		cx := ep.cx + ep.vx*float64(wave-ep.start)
		cy := ep.cy + ep.vy*float64(wave-ep.start)
		d2 := sq(float64(x)-cx) + sq(float64(y)-cy)
		boost += ep.intensity * envelope * math.Exp(-0.5*d2/sq(ep.radius))
	}
	return boost
}

// pollutant parameters: base level, diurnal amplitude, phase, drift period.
var pollutants = []struct {
	name  string
	base  float64
	amp   float64
	phase float64
	drift float64
}{
	{name: "o3", base: 45, amp: 9.5, phase: 0, drift: 90},
	{name: "pm25", base: 40, amp: 8.5, phase: 0.9, drift: 120},
	{name: "no2", base: 38, amp: 9, phase: 1.7, drift: 75},
}

// Reading returns the value of one pollutant at detector (x, y) for a wave
// (one wave = one hour). Noise aside, it is a pure function of its inputs.
func (g *Generator) Reading(wave, x, y, pollutant int) float64 {
	p := pollutants[pollutant]
	hour := float64(wave % 24)
	day := float64(wave / 24)

	diurnal := p.amp * math.Sin(2*math.Pi*hour/24+p.phase)
	// Weekday/weekend modulation on a 7-day cycle.
	weekly := 3 * math.Sin(2*math.Pi*math.Mod(day, 7)/7)
	// Smooth spatial gradient across the grid.
	spatial := 6*math.Sin(0.7*float64(x)) + 5*math.Cos(0.6*float64(y))
	drift := 2 * math.Sin(2*math.Pi*float64(wave)/(24*p.drift))
	noise := g.rng.NormFloat64() * 4.0

	v := p.base + diurnal + weekly + spatial + drift + noise + g.episodeBoost(wave, x, y)
	return clamp(v, 0, 100)
}

func sq(v float64) float64 { return v * v }

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// detectorRow renders the row key of detector (x, y).
func detectorRow(x, y int) string {
	return "d" + strconv.Itoa(x) + ":" + strconv.Itoa(y)
}

// zoneRow renders the row key of zone (zx, zy).
func zoneRow(zx, zy int) string {
	return "z" + strconv.Itoa(zx) + ":" + strconv.Itoa(zy)
}

// Build returns an engine.BuildFunc producing fresh, identical instances of
// the AQHI workload. Each call creates its own store and generator (same
// seed), so live and reference instances observe identical waves.
func Build(cfg Config) engine.BuildFunc {
	cfg = cfg.withDefaults()
	return func() (*workflow.Workflow, *kvstore.Store, error) {
		store := kvstore.New()
		gen := NewGenerator(cfg)
		wf, err := buildWorkflow(cfg, gen)
		if err != nil {
			return nil, nil, err
		}
		return wf, store, nil
	}
}

// buildWorkflow wires the Figure 6 steps.
func buildWorkflow(cfg Config, gen *Generator) (*workflow.Workflow, error) {
	wf := workflow.New("aqhi")
	grid := cfg.GridSize
	zone := cfg.ZoneSize

	container := func(table string) workflow.Container {
		return workflow.Container{Table: table}
	}
	// Step 1's rows, detectors[x*grid+y] for detector (x, y), and columns,
	// rendered once.
	detectors := make([]string, 0, grid*grid)
	for x := 0; x < grid; x++ {
		for y := 0; y < grid; y++ {
			detectors = append(detectors, detectorRow(x, y))
		}
	}
	pollutantCols := make([]string, len(pollutants))
	for p, def := range pollutants {
		pollutantCols[p] = def.name
	}

	steps := []*workflow.Step{
		{
			// Step 1 simulates the deferred arrival of sensory data
			// and feeds the first data container (3 columns).
			ID:      StepIngest,
			Source:  true,
			Outputs: []workflow.Container{container(TableSensors)},
			Proc: workflow.ProcessorFunc(func(ctx *workflow.Context) error {
				t, err := ctx.Table(TableSensors)
				if err != nil {
					return err
				}
				return t.PutFloatRows(detectors, pollutantCols, func(vals []float64) {
					k := 0
					for x := 0; x < grid; x++ {
						for y := 0; y < grid; y++ {
							for p := range pollutants {
								vals[k] = gen.Reading(ctx.Wave, x, y, p)
								k++
							}
						}
					}
				})
			}),
		},
		{
			// Step 2 combines the three sensors of each detector
			// through a multiplicative model.
			ID:      StepConcentration,
			Inputs:  []workflow.Container{container(TableSensors)},
			Outputs: []workflow.Container{container(TableConcentration)},
			QoD:     gatedQoD(cfg, metric.FuncAbsoluteImpact),
			Proc:    concentrationProc(grid),
		},
		{
			// Step 3a divides the region into zones and aggregates
			// detector concentrations per zone.
			ID:      StepZones,
			Inputs:  []workflow.Container{container(TableConcentration)},
			Outputs: []workflow.Container{container(TableZones)},
			QoD:     gatedQoD(cfg, metric.FuncAbsoluteImpact),
			Proc:    zonesProc(grid, zone),
		},
		{
			// Step 3b interpolates concentration between detectors
			// (the paper's plotted thermal map).
			ID:      StepInterp,
			Inputs:  []workflow.Container{container(TableConcentration)},
			Outputs: []workflow.Container{container(TableInterp)},
			QoD:     gatedQoD(cfg, metric.FuncAbsoluteImpact),
			Proc:    interpProc(grid),
		},
		{
			// Step 4 flags zones above the hotspot reference.
			ID:      StepHotspots,
			Inputs:  []workflow.Container{container(TableZones)},
			Outputs: []workflow.Container{container(TableHotspots)},
			// Relative impact: the hotspot/index stages have small,
			// varying output denominators, so only a normalized input
			// impact correlates positively with the relative error.
			QoD:  gatedQoD(cfg, metric.FuncRelativeImpact),
			Proc: hotspotsProc(grid, zone, cfg.HotspotReference),
		},
		{
			// Step 5 combines hotspot count and mean hotspot
			// concentration into the health index (additive model).
			ID:      StepIndex,
			Inputs:  []workflow.Container{container(TableHotspots)},
			Outputs: []workflow.Container{container(TableIndex)},
			QoD:     gatedQoD(cfg, metric.FuncRelativeImpact),
			Proc:    indexProc(),
		},
	}
	for _, s := range steps {
		if err := wf.AddStep(s); err != nil {
			return nil, fmt.Errorf("aqhi: %w", err)
		}
	}
	if err := wf.Finalize(); err != nil {
		return nil, fmt.Errorf("aqhi: %w", err)
	}
	return wf, nil
}

// gatedQoD builds the standard QoD annotation for gated AQHI steps.
func gatedQoD(cfg Config, impactFunc string) workflow.QoD {
	return workflow.QoD{
		MaxError:   cfg.MaxError,
		ImpactFunc: impactFunc,
		ErrorFunc:  metric.FuncRelativeError,
		// Accumulation (rather than cancellation) keeps periodic signals
		// from oscillating back under the bound without ever triggering:
		// per-wave deviations add up until maxε forces a refresh.
		Mode: metric.ModeAccumulate,
	}
}

// concentrationProc computes the per-detector combined concentration.
func concentrationProc(grid int) workflow.Processor {
	return workflow.ProcessorFunc(func(ctx *workflow.Context) error {
		sensors, err := ctx.Table(TableSensors)
		if err != nil {
			return err
		}
		out, err := ctx.Table(TableConcentration)
		if err != nil {
			return err
		}
		batch := kvstore.GetBatch().Grow(grid * grid)
		defer batch.Release()
		for x := 0; x < grid; x++ {
			for y := 0; y < grid; y++ {
				row := detectorRow(x, y)
				product := 1.0
				count := 0
				for _, def := range pollutants {
					if v, ok := sensors.GetFloat(row, def.name); ok {
						product *= math.Max(v, 1)
						count++
					}
				}
				if count == 0 {
					continue
				}
				// Multiplicative model: geometric mean keeps the
				// 0-100 scale.
				batch.PutFloat(row, "conc", math.Pow(product, 1/float64(count)))
			}
		}
		return out.Apply(batch)
	})
}

// zonesProc aggregates detector concentrations into zones.
func zonesProc(grid, zone int) workflow.Processor {
	return workflow.ProcessorFunc(func(ctx *workflow.Context) error {
		conc, err := ctx.Table(TableConcentration)
		if err != nil {
			return err
		}
		out, err := ctx.Table(TableZones)
		if err != nil {
			return err
		}
		zones := grid / zone
		batch := kvstore.GetBatch().Grow(zones * zones)
		defer batch.Release()
		for zx := 0; zx < zones; zx++ {
			for zy := 0; zy < zones; zy++ {
				var sum float64
				var count int
				for dx := 0; dx < zone; dx++ {
					for dy := 0; dy < zone; dy++ {
						row := detectorRow(zx*zone+dx, zy*zone+dy)
						if v, ok := conc.GetFloat(row, "conc"); ok {
							sum += v
							count++
						}
					}
				}
				if count == 0 {
					continue
				}
				batch.PutFloat(zoneRow(zx, zy), "conc", sum/float64(count))
			}
		}
		return out.Apply(batch)
	})
}

// interpProc averages the concentration perceived by surrounding detectors
// for the positions between them.
func interpProc(grid int) workflow.Processor {
	return workflow.ProcessorFunc(func(ctx *workflow.Context) error {
		conc, err := ctx.Table(TableConcentration)
		if err != nil {
			return err
		}
		out, err := ctx.Table(TableInterp)
		if err != nil {
			return err
		}
		batch := kvstore.GetBatch().Grow((grid - 1) * (grid - 1))
		defer batch.Release()
		for x := 0; x < grid-1; x++ {
			for y := 0; y < grid-1; y++ {
				var sum float64
				var count int
				for dx := 0; dx <= 1; dx++ {
					for dy := 0; dy <= 1; dy++ {
						if v, ok := conc.GetFloat(detectorRow(x+dx, y+dy), "conc"); ok {
							sum += v
							count++
						}
					}
				}
				if count == 0 {
					continue
				}
				batch.PutFloat("i"+strconv.Itoa(x)+":"+strconv.Itoa(y), "conc", sum/float64(count))
			}
		}
		return out.Apply(batch)
	})
}

// hotspotsProc writes each zone's hotspot intensity: a softplus of the
// concentration above the reference. The smooth ramp (rather than a hard
// cutoff at the reference) grades "how much of a hotspot" a zone is, so the
// input-impact/output-error correlation stays learnable when the whole
// region hovers around the reference.
func hotspotsProc(grid, zone int, reference float64) workflow.Processor {
	return workflow.ProcessorFunc(func(ctx *workflow.Context) error {
		zonesTable, err := ctx.Table(TableZones)
		if err != nil {
			return err
		}
		out, err := ctx.Table(TableHotspots)
		if err != nil {
			return err
		}
		zones := grid / zone
		batch := kvstore.GetBatch().Grow(zones * zones)
		defer batch.Release()
		for zx := 0; zx < zones; zx++ {
			for zy := 0; zy < zones; zy++ {
				row := zoneRow(zx, zy)
				v, ok := zonesTable.GetFloat(row, "conc")
				if !ok {
					continue
				}
				batch.PutFloat(row, "excess", hotspotFloor+softplus(v-reference, 5))
			}
		}
		return out.Apply(batch)
	})
}

// hotspotFloor offsets stored hotspot intensities so the container's
// relative-error scale matches its upstream containers: differencing against
// the reference would otherwise amplify relative changes several-fold and
// make the step's bound effectively stricter than everyone else's.
const hotspotFloor = 30

// softplus is s*ln(1+exp(x/s)): ~0 for strongly negative x, ~x for strongly
// positive x, smooth in between.
func softplus(x, s float64) float64 {
	return s * math.Log1p(math.Exp(x/s))
}

// indexProc computes the final index: an additive model over the (smooth)
// number of hotspots and their mean excess concentration, mapped onto the
// AQHI scale (low 1-3, moderate 4-6, high 7-10, very high above 10).
func indexProc() workflow.Processor {
	return workflow.ProcessorFunc(func(ctx *workflow.Context) error {
		hotspots, err := ctx.Table(TableHotspots)
		if err != nil {
			return err
		}
		out, err := ctx.Table(TableIndex)
		if err != nil {
			return err
		}
		cells := hotspots.Scan(kvstore.ScanOptions{})
		var count, sum float64
		for _, c := range cells {
			v, ok := c.FloatValue()
			if !ok {
				continue
			}
			// Saturating soft membership: ~1 for strongly hot zones.
			// Saturation is what makes the workflow output change
			// slowly relative to its inputs (§1: downstream steps
			// see increasingly smaller changes).
			excess := v - hotspotFloor
			if excess < 0 {
				excess = 0
			}
			count += excess / (excess + 5)
			sum += excess
		}
		index := 5 + 0.3*count
		if len(cells) > 0 {
			index += 0.03 * sum / float64(len(cells))
		}
		batch := kvstore.GetBatch()
		defer batch.Release()
		batch.PutFloat("region", "index", index)
		return out.Apply(batch)
	})
}

// RiskClass maps an index value to the paper's health-risk classes.
func RiskClass(index float64) string {
	switch {
	case index <= 3:
		return "low"
	case index <= 6:
		return "moderate"
	case index <= 10:
		return "high"
	default:
		return "very high"
	}
}
