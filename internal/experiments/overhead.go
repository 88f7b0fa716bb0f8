package experiments

import (
	"fmt"
	"io"
	"time"

	"smartflux/internal/core"
	"smartflux/internal/engine"
	"smartflux/internal/workflow"
)

// OverheadResult reproduces the §5.3 overhead analysis: the cost of the
// SmartFlux machinery (impact/error computation, model construction,
// per-wave classification) relative to executing the workflow itself. The
// paper reports per-task overhead ≈0% and model construction < 1 s.
type OverheadResult struct {
	Workload Workload
	// WaveExecution is the mean wall-clock time of one fully synchronous
	// wave including step execution.
	WaveExecution time.Duration
	// ImpactComputation is the mean per-wave cost of computing all input
	// impacts and simulated errors (the Monitoring component).
	ImpactComputation time.Duration
	// ModelBuild is the time to train the predictor on the full log.
	ModelBuild time.Duration
	// Prediction is the mean per-wave cost of querying the predictor for
	// every gated step.
	Prediction time.Duration
	// OverheadRatio is (ImpactComputation + Prediction) / WaveExecution.
	OverheadRatio float64
	// TrainingWaves is the number of waves used for ModelBuild.
	TrainingWaves int
}

// Overhead measures the middleware costs on one workload at a 10% bound.
func Overhead(r *Runner, w Workload) (*OverheadResult, error) {
	const bound = 0.10
	build, _, err := Recipe(w, r.cfg.Seed, bound)
	if err != nil {
		return nil, err
	}
	waves := r.cfg.scaled(120)

	// Baseline: run the workflow synchronously WITHOUT metric tracking by
	// executing the raw instance steps through a plain workflow run.
	wf, store, err := build()
	if err != nil {
		return nil, err
	}
	order, err := wf.Order()
	if err != nil {
		return nil, err
	}
	startExec := time.Now()
	for wave := 0; wave < waves; wave++ {
		ctx := &workflow.Context{Wave: wave, Store: store}
		for _, id := range order {
			step, err := wf.Step(id)
			if err != nil {
				return nil, err
			}
			if err := step.Proc.Process(ctx); err != nil {
				return nil, err
			}
		}
	}
	execPerWave := time.Since(startExec) / time.Duration(waves)

	// Instrumented: the same waves through the engine, which additionally
	// computes impacts and simulated errors each wave.
	wf2, store2, err := build()
	if err != nil {
		return nil, err
	}
	inst, err := engine.NewInstance(wf2, store2, engine.InstanceConfig{TrainingMode: true})
	if err != nil {
		return nil, err
	}
	session := core.NewSession(Session(r.cfg.Seed))
	startInst := time.Now()
	for wave := 0; wave < waves; wave++ {
		res, err := inst.RunWave(engine.Sync{})
		if err != nil {
			return nil, err
		}
		session.ObserveTrainingWave(res.Impacts, res.Labels)
	}
	instPerWave := time.Since(startInst) / time.Duration(waves)
	impactCost := instPerWave - execPerWave
	if impactCost < 0 {
		impactCost = 0
	}

	// Model construction.
	startTrain := time.Now()
	if _, err := session.Train(); err != nil {
		return nil, err
	}
	modelBuild := time.Since(startTrain)

	// Per-wave prediction cost.
	predictor, err := session.Predictor()
	if err != nil {
		return nil, err
	}
	gated := inst.GatedSteps()
	impacts := make([]float64, len(gated))
	const predictRounds = 200
	startPredict := time.Now()
	for i := 0; i < predictRounds; i++ {
		impacts[i%len(impacts)] = float64(i)
		if _, err := predictor.Scores(impacts); err != nil {
			return nil, err
		}
	}
	prediction := time.Since(startPredict) / predictRounds

	ratio := 0.0
	if execPerWave > 0 {
		ratio = float64(impactCost+prediction) / float64(execPerWave)
	}
	return &OverheadResult{
		Workload:          w,
		WaveExecution:     execPerWave,
		ImpactComputation: impactCost,
		ModelBuild:        modelBuild,
		Prediction:        prediction,
		OverheadRatio:     ratio,
		TrainingWaves:     waves,
	}, nil
}

// Render writes the overhead table.
func (r *OverheadResult) Render(w io.Writer) {
	fmt.Fprintf(w, "§5.3 overhead (%s, %d training waves)\n", r.Workload, r.TrainingWaves)
	fmt.Fprintf(w, "  wave execution        %12v\n", r.WaveExecution)
	fmt.Fprintf(w, "  impact computation    %12v\n", r.ImpactComputation)
	fmt.Fprintf(w, "  model construction    %12v (paper: < 1 s)\n", r.ModelBuild)
	fmt.Fprintf(w, "  per-wave prediction   %12v\n", r.Prediction)
	fmt.Fprintf(w, "  overhead ratio        %11.1f%%\n", r.OverheadRatio*100)
}
