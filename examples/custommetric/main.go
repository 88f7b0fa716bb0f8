// Custom metrics: the §4.2 update/compute API.
//
// The paper lets applications supply their own input-impact and output-error
// functions. This example defines a weighted impact metric (large elements
// matter more) and a max-deviation error metric, registers them on a small
// pipeline and runs it through the harness under a seq-3 policy to show the
// metrics at work without any learning machinery.
//
// Run with:
//
//	go run ./examples/custommetric
package main

import (
	"fmt"
	"log"
	"math"
	"strconv"

	"smartflux"
)

// weightedImpact implements smartflux.Metric (the §4.2 update/compute API):
// each modified element contributes its absolute change scaled by its
// magnitude, so changes to large elements dominate.
type weightedImpact struct {
	sum float64
}

// Update is called once per modified element.
func (m *weightedImpact) Update(cur, prev float64) {
	weight := math.Max(math.Abs(cur), math.Abs(prev))
	m.sum += math.Abs(cur-prev) * weight
}

// Compute returns the overall impact.
func (m *weightedImpact) Compute(ctx smartflux.MetricContext) float64 {
	if ctx.Total == 0 {
		return 0
	}
	return m.sum / float64(ctx.Total)
}

// Reset clears state for reuse.
func (m *weightedImpact) Reset() { m.sum = 0 }

// maxDeviation is an error metric returning the largest relative
// per-element deviation.
type maxDeviation struct {
	max float64
}

func (m *maxDeviation) Update(cur, prev float64) {
	denom := math.Abs(prev)
	if denom < 1 {
		denom = 1
	}
	if d := math.Abs(cur-prev) / denom; d > m.max {
		m.max = d
	}
}

func (m *maxDeviation) Compute(smartflux.MetricContext) float64 { return m.max }

func (m *maxDeviation) Reset() { m.max = 0 }

var (
	_ smartflux.Metric = (*weightedImpact)(nil)
	_ smartflux.Metric = (*maxDeviation)(nil)
)

func main() {
	// Trackers are the Monitoring component's bookkeeping: they hold the
	// baseline a metric compares against. Feed them snapshots per wave.
	impact := smartflux.NewMetricTracker(
		func() smartflux.Metric { return &weightedImpact{} },
		smartflux.ModeAccumulate,
	)
	errTracker := smartflux.NewMetricTracker(
		func() smartflux.Metric { return &maxDeviation{} },
		smartflux.ModeCancellation,
	)

	store := smartflux.NewStore()
	table, err := store.CreateTable("readings", smartflux.TableOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("wave  weighted-impact  max-deviation  executed")
	for wave := 0; wave < 12; wave++ {
		// Write a wave of data: element i drifts, element 9 spikes at
		// wave 6.
		batch := smartflux.NewBatch()
		for i := 0; i < 10; i++ {
			v := float64(10+i) + 0.3*float64(wave)
			if i == 9 && wave >= 6 {
				v *= 3
			}
			batch.PutFloat("r"+strconv.Itoa(i), "v", v)
		}
		if err := table.Apply(batch); err != nil {
			log.Fatal(err)
		}

		// A snapshot is immutable Columns, so one serves both trackers.
		snapshot, _ := table.ScanColumns(smartflux.ScanOptions{}, nil)
		iota := impact.ObserveColumns(snapshot)
		eps := errTracker.ObserveColumns(snapshot)

		// A hand-rolled QoD rule: execute when the custom error metric
		// exceeds 20%, then reset both baselines — exactly what the
		// QoD engine does with the built-in metrics.
		executed := eps > 0.2
		if executed {
			impact.CommitColumns(snapshot)
			errTracker.CommitColumns(snapshot)
		}
		fmt.Printf("%4d  %15.2f  %13.3f  %v\n", wave, iota, eps, executed)
	}
}
