// Package firerisk implements the paper's motivational workload (Figures
// 1-3): continuous fire-risk assessment for a forested region from a network
// of temperature, precipitation and wind sensors. A wave is one sensor
// reading interval. The workflow follows Figure 2: map update → area
// aggregation (+ thermal map) → per-area risk → overall risk and hotspots,
// with the satellite-confirmation and displacement-order steps running
// synchronously because fire detection tolerates no error.
package firerisk

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
	TableSensors  = "fire_sensors"
	TableAreas    = "fire_areas"
	TableThermal  = "fire_thermal"
	TableRisk     = "fire_risk"
	TableOverall  = "fire_overall"
	TableSat      = "fire_satellite"
	TableDispatch = "fire_dispatch"
)

// Step IDs (Figure 2).
const (
	StepMapUpdate workflow.StepID = "1-map-update"
	StepAreas     workflow.StepID = "2a-areas"
	StepThermal   workflow.StepID = "2b-thermal"
	StepAreaRisk  workflow.StepID = "3-area-risk"
	StepOverall   workflow.StepID = "4a-overall"
	StepSatellite workflow.StepID = "4b-satellite"
	StepDispatch  workflow.StepID = "5-dispatch"
)

// Config parameterizes the workload.
type Config struct {
	// GridSize is the sensor grid edge (default 10).
	GridSize int
	// AreaSize is the edge of an area in sensors (default 2).
	AreaSize int
	// MaxError is maxε applied to gated steps (default 0.10).
	MaxError float64
	// Seed drives sensor noise and fire events.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.GridSize <= 0 {
		c.GridSize = 10
	}
	if c.AreaSize <= 0 {
		c.AreaSize = 2
	}
	if c.MaxError <= 0 {
		c.MaxError = 0.10
	}
	return c
}

// Generator produces the Figure 3-style diurnal sensor series: temperature,
// precipitation and wind varying progressively over 24-hour cycles (one wave
// per half hour), with occasional dry-heat events that push fire risk up.
type Generator struct {
	cfg    Config
	rng    *rand.Rand
	evRng  *rand.Rand
	events []heatEvent
}

// heatEvent is a localized hot-and-dry spell.
type heatEvent struct {
	start, duration int
	cx, cy          float64
	intensity       float64
}

// WavesPerDay is the number of waves in one simulated day (half-hour waves).
const WavesPerDay = 48

// NewGenerator creates a deterministic generator.
func NewGenerator(cfg Config) *Generator {
	cfg = cfg.withDefaults()
	return &Generator{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		evRng: rand.New(rand.NewSource(cfg.Seed + 1)),
	}
}

// ensureEvents extends the deterministic event schedule past wave.
func (g *Generator) ensureEvents(wave int) {
	for {
		next := 30
		if n := len(g.events); n > 0 {
			last := g.events[n-1]
			next = last.start + last.duration + 20 + g.evRng.Intn(60)
		}
		if len(g.events) > 0 && next > wave {
			return
		}
		g.events = append(g.events, heatEvent{
			start:     next,
			duration:  16 + g.evRng.Intn(30),
			cx:        g.evRng.Float64() * float64(g.cfg.GridSize),
			cy:        g.evRng.Float64() * float64(g.cfg.GridSize),
			intensity: 8 + g.evRng.Float64()*8,
		})
	}
}

// eventBoost returns the temperature boost of active heat events at (x, y).
func (g *Generator) eventBoost(wave, x, y int) float64 {
	g.ensureEvents(wave)
	var boost float64
	for _, ev := range g.events {
		if wave < ev.start || wave >= ev.start+ev.duration {
			continue
		}
		t := float64(wave-ev.start) / float64(ev.duration)
		envelope := math.Sin(math.Pi * t)
		d2 := sq(float64(x)-ev.cx) + sq(float64(y)-ev.cy)
		boost += ev.intensity * envelope * math.Exp(-0.5*d2/9)
	}
	return boost
}

func sq(v float64) float64 { return v * v }

// Temperature returns °C at sensor (x, y) for a wave (Figure 3's diurnal
// curve: ~24-30 °C over a day in the Amazon rainforest).
func (g *Generator) Temperature(wave, x, y int) float64 {
	hour := float64(wave%WavesPerDay) / 2
	diurnal := 27 + 3*math.Sin(2*math.Pi*(hour-9)/24)
	spatial := 0.8*math.Sin(0.5*float64(x)) + 0.6*math.Cos(0.4*float64(y))
	noise := g.rng.NormFloat64() * 0.5
	return diurnal + spatial + noise + g.eventBoost(wave, x, y)
}

// Precipitation returns mm at sensor (x, y): mostly near zero with an
// afternoon bump, suppressed during heat events.
func (g *Generator) Precipitation(wave, x, y int) float64 {
	hour := float64(wave%WavesPerDay) / 2
	base := 0.3 + 0.3*math.Sin(2*math.Pi*(hour-15)/24)
	if base < 0 {
		base = 0
	}
	suppression := 1 / (1 + g.eventBoost(wave, x, y)/3)
	noise := math.Abs(g.rng.NormFloat64()) * 0.05
	return base*suppression + noise
}

// Wind returns km/h at sensor (x, y), picking up during events.
func (g *Generator) Wind(wave, x, y int) float64 {
	hour := float64(wave%WavesPerDay) / 2
	base := 5 + 2*math.Sin(2*math.Pi*(hour-13)/24)
	noise := g.rng.NormFloat64() * 0.4
	return base + noise + 0.4*g.eventBoost(wave, x, y)
}

// sensorCols are the measures step 1 writes per sensor, in stamp order.
var sensorCols = []string{"temp", "precip", "wind"}

// sensorRow renders the row key of sensor (x, y).
func sensorRow(x, y int) string {
	return "s" + strconv.Itoa(x) + ":" + strconv.Itoa(y)
}

// areaRow renders the row key of area (ax, ay).
func areaRow(ax, ay int) string {
	return "a" + strconv.Itoa(ax) + ":" + strconv.Itoa(ay)
}

// Build returns an engine.BuildFunc producing fresh, identical instances of
// the fire-risk workload.
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

// gatedQoD is the common QoD annotation for gated fire-risk steps. scale
// tightens a step's bound relative to the configured MaxError: the area
// aggregation feeds the strongly amplifying risk index downstream, so its
// own output must stay fresher than the workflow output (per-step bounds
// reflect application semantics, §2.4).
func gatedQoD(cfg Config, scale float64) workflow.QoD {
	return workflow.QoD{
		MaxError:   cfg.MaxError * scale,
		ImpactFunc: metric.FuncRelativeImpact,
		ErrorFunc:  metric.FuncRelativeError,
		Mode:       metric.ModeAccumulate,
	}
}

// buildWorkflow wires the Figure 2 steps.
func buildWorkflow(cfg Config, gen *Generator) (*workflow.Workflow, error) {
	wf := workflow.New("firerisk")
	grid := cfg.GridSize
	area := cfg.AreaSize
	container := func(table string) workflow.Container {
		return workflow.Container{Table: table}
	}
	// Step 1's rows, sensors[x*grid+y] for sensor (x, y), rendered once.
	sensors := make([]string, 0, grid*grid)
	for x := 0; x < grid; x++ {
		for y := 0; y < grid; y++ {
			sensors = append(sensors, sensorRow(x, y))
		}
	}

	steps := []*workflow.Step{
		{
			// Step 1 aggregates sensor data into the map containers;
			// it must always execute (first updater, §2.4).
			ID:      StepMapUpdate,
			Source:  true,
			Outputs: []workflow.Container{container(TableSensors)},
			Proc: workflow.ProcessorFunc(func(ctx *workflow.Context) error {
				t, err := ctx.Table(TableSensors)
				if err != nil {
					return err
				}
				return t.PutFloatRows(sensors, sensorCols, func(vals []float64) {
					k := 0
					for x := 0; x < grid; x++ {
						for y := 0; y < grid; y++ {
							vals[k] = gen.Temperature(ctx.Wave, x, y)
							vals[k+1] = gen.Precipitation(ctx.Wave, x, y)
							vals[k+2] = gen.Wind(ctx.Wave, x, y)
							k += 3
						}
					}
				})
			}),
		},
		{
			// Step 2a divides the forest into areas and combines the
			// measures of all sensors in each area.
			ID:      StepAreas,
			Inputs:  []workflow.Container{container(TableSensors)},
			Outputs: []workflow.Container{container(TableAreas)},
			QoD:     gatedQoD(cfg, 0.35),
			Proc:    areasProc(grid, area),
		},
		{
			// Step 2b renders a thermal map for a monitoring station.
			ID:      StepThermal,
			Inputs:  []workflow.Container{container(TableSensors)},
			Outputs: []workflow.Container{container(TableThermal)},
			QoD:     gatedQoD(cfg, 1),
			Proc:    thermalProc(grid),
		},
		{
			// Step 3 assesses the fire risk of each area.
			ID:      StepAreaRisk,
			Inputs:  []workflow.Container{container(TableAreas)},
			Outputs: []workflow.Container{container(TableRisk)},
			QoD:     gatedQoD(cfg, 1),
			Proc:    areaRiskProc(grid, area),
		},
		{
			// Step 4a assesses the overall risk and hotspots: the
			// workflow output whose value changes slowly over time.
			ID:      StepOverall,
			Inputs:  []workflow.Container{container(TableRisk)},
			Outputs: []workflow.Container{container(TableOverall)},
			QoD:     gatedQoD(cfg, 1),
			Proc:    overallProc(grid, area),
		},
		{
			// Step 4b gathers satellite imagery for areas on fire —
			// critical, tolerates no error.
			ID:      StepSatellite,
			Inputs:  []workflow.Container{container(TableRisk)},
			Outputs: []workflow.Container{container(TableSat)},
			Proc:    satelliteProc(grid, area),
		},
		{
			// Step 5 issues displacement orders on confirmed fires —
			// critical, tolerates no error.
			ID:      StepDispatch,
			Inputs:  []workflow.Container{container(TableSat)},
			Outputs: []workflow.Container{container(TableDispatch)},
			Proc:    dispatchProc(),
		},
	}
	for _, s := range steps {
		if err := wf.AddStep(s); err != nil {
			return nil, fmt.Errorf("firerisk: %w", err)
		}
	}
	if err := wf.Finalize(); err != nil {
		return nil, fmt.Errorf("firerisk: %w", err)
	}
	return wf, nil
}

// areasProc averages each area's sensor readings.
func areasProc(grid, area int) workflow.Processor {
	return workflow.ProcessorFunc(func(ctx *workflow.Context) error {
		sensors, err := ctx.Table(TableSensors)
		if err != nil {
			return err
		}
		out, err := ctx.Table(TableAreas)
		if err != nil {
			return err
		}
		areas := grid / area
		batch := kvstore.GetBatch().Grow(3 * areas * areas)
		defer batch.Release()
		for ax := 0; ax < areas; ax++ {
			for ay := 0; ay < areas; ay++ {
				var temp, precip, wind float64
				var n int
				for dx := 0; dx < area; dx++ {
					for dy := 0; dy < area; dy++ {
						row := sensorRow(ax*area+dx, ay*area+dy)
						t, ok := sensors.GetFloat(row, "temp")
						if !ok {
							continue
						}
						p, _ := sensors.GetFloat(row, "precip")
						w, _ := sensors.GetFloat(row, "wind")
						temp += t
						precip += p
						wind += w
						n++
					}
				}
				if n == 0 {
					continue
				}
				row := areaRow(ax, ay)
				batch.PutFloat(row, "temp", temp/float64(n))
				batch.PutFloat(row, "precip", precip/float64(n))
				batch.PutFloat(row, "wind", wind/float64(n))
			}
		}
		return out.Apply(batch)
	})
}

// thermalProc renders a coarse thermal map (a display product).
func thermalProc(grid int) workflow.Processor {
	return workflow.ProcessorFunc(func(ctx *workflow.Context) error {
		sensors, err := ctx.Table(TableSensors)
		if err != nil {
			return err
		}
		out, err := ctx.Table(TableThermal)
		if err != nil {
			return err
		}
		batch := kvstore.GetBatch().Grow((grid - 1) * (grid - 1))
		defer batch.Release()
		for x := 0; x < grid-1; x++ {
			for y := 0; y < grid-1; y++ {
				var sum float64
				var n int
				for dx := 0; dx <= 1; dx++ {
					for dy := 0; dy <= 1; dy++ {
						if v, ok := sensors.GetFloat(sensorRow(x+dx, y+dy), "temp"); ok {
							sum += v
							n++
						}
					}
				}
				if n == 0 {
					continue
				}
				batch.PutFloat("t"+strconv.Itoa(x)+":"+strconv.Itoa(y), "temp", sum/float64(n))
			}
		}
		return out.Apply(batch)
	})
}

// areaRiskProc scores each area with a fire-weather index: hot, dry and
// windy areas score high. The saturating form keeps risk in [0, 100].
func areaRiskProc(grid, area int) workflow.Processor {
	return workflow.ProcessorFunc(func(ctx *workflow.Context) error {
		areas, err := ctx.Table(TableAreas)
		if err != nil {
			return err
		}
		out, err := ctx.Table(TableRisk)
		if err != nil {
			return err
		}
		n := grid / area
		batch := kvstore.GetBatch().Grow(n * n)
		defer batch.Release()
		for ax := 0; ax < n; ax++ {
			for ay := 0; ay < n; ay++ {
				row := areaRow(ax, ay)
				temp, ok := areas.GetFloat(row, "temp")
				if !ok {
					continue
				}
				precip, _ := areas.GetFloat(row, "precip")
				wind, _ := areas.GetFloat(row, "wind")
				// Fire-weather index: exponential in temperature
				// above 25°C, damped by precipitation, boosted by
				// wind.
				heat := math.Exp((temp - 25) / 9)
				dryness := 1 / (1 + 3*precip)
				breeze := 1 + wind/20
				raw := 16 * heat * dryness * breeze
				risk := 100 * raw / (raw + 25)
				batch.PutFloat(row, "risk", risk)
			}
		}
		return out.Apply(batch)
	})
}

// overallProc computes the overall risk level and the hotspot count of
// contiguous risky areas: the slowly-changing workflow output.
func overallProc(grid, area int) workflow.Processor {
	n := grid / area
	return workflow.ProcessorFunc(func(ctx *workflow.Context) error {
		risk, err := ctx.Table(TableRisk)
		if err != nil {
			return err
		}
		out, err := ctx.Table(TableOverall)
		if err != nil {
			return err
		}
		// Hotspots: flood-fill areas with risk above 70.
		hot := make(map[[2]int]bool)
		var sum float64
		var count int
		for ax := 0; ax < n; ax++ {
			for ay := 0; ay < n; ay++ {
				v, ok := risk.GetFloat(areaRow(ax, ay), "risk")
				if !ok {
					continue
				}
				sum += v
				count++
				if v > 70 {
					hot[[2]int{ax, ay}] = true
				}
			}
		}
		clusters := clusterCount(hot)
		overall := 0.0
		if count > 0 {
			overall = sum / float64(count)
		}
		batch := kvstore.GetBatch().Grow(2)
		defer batch.Release()
		batch.PutFloat("region", "risk", 20+overall)
		batch.PutFloat("region", "hotspots", 1+float64(clusters))
		return out.Apply(batch)
	})
}

// clusterCount counts 4-connected components among hot areas.
func clusterCount(hot map[[2]int]bool) int {
	seen := make(map[[2]int]bool, len(hot))
	var clusters int
	var stack [][2]int
	for cell := range hot {
		if seen[cell] {
			continue
		}
		clusters++
		stack = append(stack[:0], cell)
		seen[cell] = true
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				next := [2]int{cur[0] + d[0], cur[1] + d[1]}
				if hot[next] && !seen[next] {
					seen[next] = true
					stack = append(stack, next)
				}
			}
		}
	}
	return clusters
}

// satelliteProc flags areas with extreme risk for imagery confirmation.
func satelliteProc(grid, area int) workflow.Processor {
	n := grid / area
	return workflow.ProcessorFunc(func(ctx *workflow.Context) error {
		risk, err := ctx.Table(TableRisk)
		if err != nil {
			return err
		}
		out, err := ctx.Table(TableSat)
		if err != nil {
			return err
		}
		batch := kvstore.GetBatch()
		defer batch.Release()
		var confirmed float64
		for ax := 0; ax < n; ax++ {
			for ay := 0; ay < n; ay++ {
				v, ok := risk.GetFloat(areaRow(ax, ay), "risk")
				if ok && v > 90 {
					confirmed++
				}
			}
		}
		batch.PutFloat("region", "onfire", confirmed)
		return out.Apply(batch)
	})
}

// dispatchProc issues a displacement order when satellite imagery confirms
// a fire.
func dispatchProc() workflow.Processor {
	return workflow.ProcessorFunc(func(ctx *workflow.Context) error {
		sat, err := ctx.Table(TableSat)
		if err != nil {
			return err
		}
		out, err := ctx.Table(TableDispatch)
		if err != nil {
			return err
		}
		onfire, _ := sat.GetFloat("region", "onfire")
		order := 0.0
		if onfire > 0 {
			order = 1
		}
		batch := kvstore.GetBatch().PutFloat("region", "order", order)
		defer batch.Release()
		return out.Apply(batch)
	})
}
