package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"smartflux/internal/aqhi"
	"smartflux/internal/core"
	"smartflux/internal/engine"
	"smartflux/internal/firerisk"
	"smartflux/internal/lrb"
	"smartflux/internal/workflow"
)

// This file is the one run recipe behind cmd/smartflux and cmd/experiments:
// which workload a name builds, which policy a name decides with, and the
// session SmartFlux learns with.

// Workload names one of the built-in scenarios.
type Workload string

// The two §5.1 evaluation workloads the figures sweep, and the motivational
// fire-risk scenario (§2) cmd/smartflux also runs.
const (
	LRB      Workload = "lrb"
	AQHI     Workload = "aqhi"
	FireRisk Workload = "firerisk"
)

// workloadSpec is one built-in workload: its build at a (seed, bound) and the
// step whose output error is reported — the last gated step of each workflow
// (LRB 5a, AQHI 5, fire risk 4a).
type workloadSpec struct {
	build  func(seed int64, bound float64) engine.BuildFunc
	report workflow.StepID
}

var workloadSpecs = map[Workload]workloadSpec{
	LRB: {func(seed int64, bound float64) engine.BuildFunc {
		return lrb.Build(lrb.Config{Seed: seed, MaxError: bound})
	}, lrb.StepClassify},
	AQHI: {func(seed int64, bound float64) engine.BuildFunc {
		return aqhi.Build(aqhi.Config{Seed: seed, MaxError: bound})
	}, aqhi.StepIndex},
	FireRisk: {func(seed int64, bound float64) engine.BuildFunc {
		return firerisk.Build(firerisk.Config{Seed: seed, MaxError: bound})
	}, firerisk.StepOverall},
}

// Recipe resolves a workload name to its build at (seed, bound) and the step
// whose output error a run reports.
func Recipe(w Workload, seed int64, bound float64) (engine.BuildFunc, workflow.StepID, error) {
	spec, ok := workloadSpecs[w]
	if !ok {
		return nil, "", fmt.Errorf("unknown workload %q", w)
	}
	return spec.build(seed, bound), spec.report, nil
}

// SmartFlux names the learned policy.
const SmartFlux = "smartflux"

// Policy resolves a policy name to the Decider of a pipeline's application
// phase: nil — the session the pipeline builds and trains itself — for
// smartflux; sync; random, executing with probability 0.5 under seed+11;
// seqN, executing every N-th wave (N ≥ 1); oracle.
func Policy(name string, seed int64) (engine.Decider, error) {
	switch name {
	case SmartFlux:
		return nil, nil
	case "sync":
		return engine.Sync{}, nil
	case "random":
		return engine.NewRandom(0.5, seed+11), nil
	case "oracle":
		return &engine.Oracle{}, nil
	}
	if digits, ok := strings.CutPrefix(name, "seq"); ok {
		n, err := strconv.Atoi(digits)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad seq policy %q: want seqN with N >= 1", name)
		}
		return engine.NewSeq(n), nil
	}
	return nil, fmt.Errorf("unknown policy %q", name)
}

// Session returns the SmartFlux session configuration of every run: Random
// Forest, recall-optimized (§5.2).
func Session(seed int64) core.Config {
	return core.Config{
		Seed:           seed + 7,
		Thresholds:     []float64{0.15},
		PositiveWeight: 14,
	}
}
