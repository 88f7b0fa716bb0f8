// Air quality: the AQHI sensor-network workload of the paper's evaluation
// (§5.1, Figure 6), showing adaptive execution plus live index readings.
//
// After training, the program runs one simulated week (168 hourly waves)
// adaptively and prints the evolving health-risk classification along with
// the execution savings.
//
// Run with:
//
//	go run ./examples/airquality [-bound 0.10]
package main

import (
	"flag"
	"fmt"
	"log"

	"smartflux"
	"smartflux/workloads"
)

func main() {
	bound := flag.Float64("bound", 0.10, "maximum tolerated output error (maxε)")
	seed := flag.Int64("seed", 42, "deterministic seed")
	flag.Parse()

	build := workloads.AirQuality(workloads.AirQualityConfig{
		Seed:     *seed,
		MaxError: *bound,
	})

	harness, err := smartflux.NewHarness(build, []smartflux.StepID{workloads.AirQualityIndex})
	if err != nil {
		log.Fatal(err)
	}
	session := smartflux.NewSession(smartflux.SessionConfig{
		Seed:           *seed + 7,
		Thresholds:     []float64{0.15},
		PositiveWeight: 14,
	})

	// Training: two synchronous weeks.
	train, err := harness.Run(336, session)
	if err != nil {
		log.Fatal(err)
	}
	for w := range train.RefImpacts {
		session.ObserveTrainingWave(train.RefImpacts[w], train.RefLabels[w])
	}
	if _, err := session.Train(); err != nil {
		log.Fatal(err)
	}

	// Application: one adaptive week, reporting the index daily.
	apply, err := harness.Run(168, session)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("AQHI @ %.0f%% bound — one adaptive week\n", *bound*100)
	live := harness.Live()
	index := live.OutputState(workloads.AirQualityIndex)
	for i, key := range index.Keys {
		fmt.Printf("  final %s = %.2f (%s risk)\n", key, index.Vals[i], workloads.AirQualityRiskClass(index.Vals[i]))
	}
	fmt.Printf("  executions: %d of %d sync (%.0f%% saved)\n",
		apply.TotalLiveExecutions(), apply.TotalSyncExecutions(),
		apply.SavingsRatio()*100)

	report := apply.Reports[workloads.AirQualityIndex]
	conf := report.Confidence()
	fmt.Printf("  index bound compliance: %d violations in %d waves (confidence %.1f%%)\n",
		report.ViolationCount(), len(report.Measured), conf[len(conf)-1]*100)
}
