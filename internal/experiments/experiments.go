// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each experiment is a typed runner producing the same
// rows/series the paper reports, with a text renderer; cmd/experiments and
// the repository-root benchmarks drive them. recipe.go is the run recipe
// cmd/smartflux shares: workload, policy and session by name.
//
// Experiment index (see DESIGN.md §1):
//
//	Fig3       - diurnal sensor series of the motivational example
//	ROC        - §3.2 classifier selection (ROC areas of six algorithms)
//	Fig7       - input-impact/output-error correlation + Pearson r
//	Fig8       - accuracy/precision/recall vs training-set size
//	Fig9       - measured vs predicted error per wave (and deviations)
//	Fig10      - confidence in respecting error bounds
//	Fig11      - SmartFlux vs naive triggering policies
//	Fig12      - executions under QoD vs the synchronous model
//	Overhead   - §5.3 middleware overhead microbenchmarks
package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"smartflux/internal/core"
	"smartflux/internal/obs"
	"smartflux/internal/workflow"
)

// Bounds are the error bounds the paper sweeps (5, 10, 20%).
var Bounds = []float64{0.05, 0.10, 0.20}

// Config parameterizes an experiment run.
type Config struct {
	// Seed drives all stochastic components.
	Seed int64
	// Scale multiplies wave counts; 1 reproduces the paper's lengths
	// (500+500 LRB, 336+384 AQHI), smaller values give quick runs.
	Scale float64
	// Jobs bounds how many (workload, bound) pipelines run concurrently
	// (the cmd/experiments -j flag): 0 selects runtime.GOMAXPROCS(0),
	// 1 runs them one at a time. Within a fan-out each pipeline runs at
	// PipelineConfig.Parallelism 1 — one training task at a time; each
	// engine instance runs its waves on one goroutine at every setting.
	// ClassifierSelection runs its cross-validations on as many workers. Every figure's output is identical for every setting.
	Jobs int
	// Obs, when non-nil, instruments every pipeline the runner executes
	// (metrics, decision traces and causal spans; see cmd/experiments'
	// -trace-out/-span-out/-obs-addr flags). Figure output is unchanged.
	// Span IDs are deterministic per run, so with several cached pipelines
	// tracing into one stream the runs' trees share IDs; prefer a single
	// -fig target (or sftrace per-file analysis) for span work.
	Obs *obs.Observer
}

// jobs resolves the effective pipeline fan-out.
func (c Config) jobs() int {
	if c.Jobs > 0 {
		return c.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	return c
}

// scaled applies the scale factor with a floor.
func (c Config) scaled(waves int) int {
	out := int(float64(waves) * c.Scale)
	if out < 40 {
		out = 40
	}
	return out
}

// trainWaves returns the training-phase length per workload.
func (c Config) trainWaves(w Workload) int {
	if w == LRB {
		return c.scaled(500)
	}
	return c.scaled(336)
}

// applyWaves returns the application-phase length per workload (the paper's
// test horizons: 500 waves LRB, 384 waves AQHI).
func (c Config) applyWaves(w Workload) int {
	if w == LRB {
		return c.scaled(500)
	}
	return c.scaled(384)
}

// Fig11Policies are the curves of Figure 11: SmartFlux, then the naive
// baselines it is compared against.
var Fig11Policies = []string{SmartFlux, "random", "seq2", "seq3", "seq5"}

// Runner caches pipeline runs shared by several figures (9, 10, 12 all
// derive from the same (workload, bound) SmartFlux run). It is safe for
// concurrent use: concurrent Pipeline calls for the same key share one run.
type Runner struct {
	cfg   Config
	mu    sync.Mutex
	cache map[string]*pipelineEntry
}

// pipelineEntry is one cache slot; once ensures a key's pipeline runs
// exactly once even when requested concurrently.
type pipelineEntry struct {
	once sync.Once
	res  *core.PipelineResult
	err  error
}

// NewRunner creates a runner.
func NewRunner(cfg Config) *Runner {
	return &Runner{cfg: cfg.withDefaults(), cache: make(map[string]*pipelineEntry)}
}

// Config returns the runner's effective configuration.
func (r *Runner) Config() Config { return r.cfg }

// Pipeline runs (or returns the cached) full lifecycle for a workload at a
// bound under a policy: every policy gets the same training waves — which only
// SmartFlux learns from — and then the same application horizon.
func (r *Runner) Pipeline(w Workload, bound float64, policy string) (*core.PipelineResult, error) {
	key := fmt.Sprintf("%s/%.3f/%s", w, bound, policy)
	r.mu.Lock()
	entry, ok := r.cache[key]
	if !ok {
		entry = &pipelineEntry{}
		r.cache[key] = entry
	}
	r.mu.Unlock()
	entry.once.Do(func() {
		entry.res, entry.err = r.runPipeline(w, bound, policy)
	})
	return entry.res, entry.err
}

// runPipeline executes one uncached pipeline. When pipelines fan out
// (Jobs > 1) each trains at Parallelism 1, so the fan-out rather than the
// training tasks uses the machine (forest tree fits still fan out inside);
// a lone pipeline trains with full parallelism.
func (r *Runner) runPipeline(w Workload, bound float64, policy string) (*core.PipelineResult, error) {
	build, report, err := Recipe(w, r.cfg.Seed, bound)
	if err != nil {
		return nil, err
	}
	decider, err := Policy(policy, r.cfg.Seed)
	if err != nil {
		return nil, err
	}
	parallelism := 0
	if r.cfg.jobs() > 1 {
		parallelism = 1
	}
	res, err := core.RunPipeline(build, []workflow.StepID{report}, core.PipelineConfig{
		TrainWaves:  r.cfg.trainWaves(w),
		ApplyWaves:  r.cfg.applyWaves(w),
		Policy:      decider,
		Session:     Session(r.cfg.Seed),
		Parallelism: parallelism,
		Obs:         r.cfg.Obs,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments %s bound %.2f policy %s: %w", w, bound, policy, err)
	}
	return res, nil
}

// Target identifies one cached pipeline run.
type Target struct {
	Workload Workload
	Bound    float64
	Policy   string
}

// Prewarm runs the pipelines for every target concurrently, bounded by
// Config.Jobs, so subsequent figure calls hit the cache. It returns the
// first error in target order. Figures computed from prewarmed runs are
// identical to computing them cold — the fan-out only changes wall-clock.
func (r *Runner) Prewarm(targets []Target) error {
	return fanOut(r.cfg.jobs(), len(targets), func(i int) error {
		_, err := r.Pipeline(targets[i].Workload, targets[i].Bound, targets[i].Policy)
		return err
	})
}

// fanOut runs fn(0), …, fn(n-1) on at most jobs goroutines, each call
// writing only its own slot, and returns the first error in index order.
func fanOut(jobs, n int, fn func(i int) error) error {
	errs := make([]error, n)
	sem := make(chan struct{}, jobs)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
			<-sem
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SyncLog is a contiguous synchronous-execution log: per-wave impact
// vectors, simulated-optimal labels and simulated errors for every gated
// step — the raw material of the ROC, Fig7 and Fig8 experiments.
type SyncLog struct {
	Steps     []workflow.StepID
	Impacts   [][]float64
	Labels    [][]int
	SimErrors [][]float64
}

// Waves returns the log length.
func (l *SyncLog) Waves() int { return len(l.Impacts) }

// Log returns the synchronous log of a workload at a bound, concatenating
// the cached SmartFlux pipeline's training and application phases (the harness
// reference instance runs synchronously throughout, so the combined log is
// one contiguous sync run).
func (r *Runner) Log(w Workload, bound float64) (*SyncLog, error) {
	res, err := r.Pipeline(w, bound, SmartFlux)
	if err != nil {
		return nil, err
	}
	log := &SyncLog{Steps: res.Train.GatedSteps}
	log.Impacts = append(log.Impacts, res.Train.RefImpacts...)
	log.Labels = append(log.Labels, res.Train.RefLabels...)
	log.SimErrors = append(log.SimErrors, res.Train.RefSimErrors...)
	if res.Apply != nil {
		log.Impacts = append(log.Impacts, res.Apply.RefImpacts...)
		log.Labels = append(log.Labels, res.Apply.RefLabels...)
		log.SimErrors = append(log.SimErrors, res.Apply.RefSimErrors...)
	}
	return log, nil
}
