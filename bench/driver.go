package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"smartflux/internal/core"
	"smartflux/internal/engine"
	"smartflux/internal/kvstore"
	"smartflux/internal/metric"
	"smartflux/internal/workflow"
)

// rig is one set-up workload instance, ready for its application phase.
type rig struct {
	w       workload
	h       *engine.Harness
	session *core.Session
	decider engine.Decider
	report  workflow.StepID
	backend backend

	setup, modelBuild, attach time.Duration
}

// sessionConfig is cmd/smartflux's session configuration: the default random
// forest, recall-biased so the bound holds (§5.2).
func sessionConfig(seed int64, parallelism int) core.Config {
	return core.Config{
		Seed:           seed + 7,
		Thresholds:     []float64{0.15},
		PositiveWeight: 14,
		Parallelism:    parallelism,
	}
}

// setUp is step 1 of a run: build the live and reference instances, drive
// the synchronous training waves, fit the model, then attach the backend to
// the live store only. tr is nil for an untraced run; a traced run installs
// its proc wrappers and bracketing observers here, but records nothing until
// the application phase.
func setUp(w workload, seed int64, tmpDir string, tr *tracer) (*rig, error) {
	start := time.Now()
	build, report := w.build(seed)
	h, err := engine.NewHarnessWithConfig(build, []workflow.StepID{report},
		engine.HarnessConfig{Parallelism: w.parallelism})
	if err != nil {
		return nil, err
	}
	session := core.NewSession(sessionConfig(seed, w.parallelism))
	train, err := h.Run(w.train, session)
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	for i := range train.RefImpacts {
		session.ObserveTrainingWave(train.RefImpacts[i], train.RefLabels[i])
	}
	fit := time.Now()
	if _, err := session.Train(); err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	r := &rig{w: w, h: h, session: session, decider: session, report: report}
	r.modelBuild = time.Since(fit)
	if w.sync {
		r.decider = engine.Sync{}
	}

	store := h.Live().Store()
	tr.subscribeBefore(store)
	attach := time.Now()
	switch w.backend {
	case backendDurable:
		r.backend, err = attachDurable(tmpDir, h.Live(), session)
	case backendCluster:
		r.backend, err = attachCluster(store)
	default:
		r.backend = noBackend{}
	}
	if err != nil {
		return nil, fmt.Errorf("backend attach: %w", err)
	}
	r.attach = time.Since(attach)
	tr.subscribeAfter(store)
	if tr != nil {
		if err := tr.wrapProcs(h.Live().Workflow()); err != nil {
			r.close()
			return nil, err
		}
		r.decider = tr.wrapDecider(r.decider)
	}
	r.setup = time.Since(start)
	return r, nil
}

func (r *rig) close() { r.backend.close() }

// phase is what one application phase produced.
type phase struct {
	waves int
	// lat is the timed region of each wave: RunWave plus the backend
	// epilogue (checkpoint encode + commit, or the mirror-error check).
	lat []time.Duration
	// executed is the decision matrix (wave × gated step); impacts the ι
	// vectors the decider saw.
	executed [][]bool
	impacts  [][]float64
	gated    int
	// gatedExecutions and totalExecutions count step executions.
	gatedExecutions, totalExecutions int
	failed                           int
	firstErr                         error
	// measured and violations are the oracle's series over the checked
	// prefix: Harness.measure's Measured error, recomputed from public API.
	measured   []float64
	violations []bool
	// mallocs and allocBytes cover the waves after the checked prefix.
	mallocs, allocBytes uint64
	allocWaves          int
}

// runPhase is steps 2 and 3 of a run: `apply` application waves driven
// closed-loop with exactly one wave in flight, the first `check` of them
// followed by the (untimed) error oracle.
func (r *rig) runPhase(apply, check int, tr *tracer) *phase {
	live := r.h.Live()
	p := &phase{
		waves:    apply,
		lat:      make([]time.Duration, 0, apply),
		executed: make([][]bool, 0, apply),
		impacts:  make([][]float64, 0, apply),
		gated:    len(live.GatedSteps()),
	}
	fail := func(err error) {
		p.failed++
		if p.firstErr == nil {
			p.firstErr = err
		}
	}
	step, err := live.Workflow().Step(r.report)
	if err != nil {
		fail(err)
		return p
	}
	maxErr := step.QoD.MaxError
	factory := live.ErrorFactory(r.report)

	var before runtime.MemStats
	for w := 0; w < apply; w++ {
		if w == check {
			runtime.ReadMemStats(&before)
		}
		tr.beginWave(w)
		t0 := time.Now()
		res, err := live.RunWave(r.decider)
		tr.endEngine()
		if err == nil {
			err = r.backend.commit(live.Wave(), tr)
		}
		p.lat = append(p.lat, time.Since(t0))
		tr.endWave()
		tr.afterWave(live.Store())
		if err != nil {
			fail(fmt.Errorf("wave %d: %w", w, err))
			continue
		}
		p.executed = append(p.executed, res.Executed)
		p.impacts = append(p.impacts, res.Impacts)
		p.gatedExecutions += res.GatedExecutions
		p.totalExecutions += res.TotalExecutions

		if w < check {
			// Exactly Harness.measure's Measured: the deviation between
			// the output the step would produce right now on its live
			// inputs and the stale output it is serving.
			fresh, err := live.HypotheticalOutput(r.report)
			if err != nil {
				fail(fmt.Errorf("oracle wave %d: %w", w, err))
				continue
			}
			m := metric.Evaluate(factory, fresh, live.OutputState(r.report))
			p.measured = append(p.measured, m)
			p.violations = append(p.violations, m > maxErr)
		}
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	p.mallocs = after.Mallocs - before.Mallocs
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.allocWaves = apply - check
	return p
}

// execSavings is 1 − live gated executions ÷ (gated steps × waves): Fig. 12.
func (p *phase) execSavings() float64 {
	if p.gated == 0 || p.waves == 0 {
		return 0
	}
	return 1 - float64(p.gatedExecutions)/float64(p.gated*p.waves)
}

// boundConfidence is the share of checked waves whose Measured ε stayed
// within maxε (Fig. 10); 1 by construction when nothing is checked.
func (p *phase) boundConfidence() float64 {
	if len(p.violations) == 0 {
		return 1
	}
	ok := 0
	for _, v := range p.violations {
		if !v {
			ok++
		}
	}
	return float64(ok) / float64(len(p.violations))
}

// dumpStore renders every retained cell version of s — values, version
// histories and logical timestamps — in table, row, column order, newest
// version first (the order cluster.Client.ScanVersions merges to): the dump
// the repository's chaos suites compare bit for bit.
func dumpStore(s *kvstore.Store) ([]byte, error) { return dumpStoreStamped(s, true) }

// dumpStoreStamped is dumpStore with the logical timestamps optional. At
// Parallelism 2 concurrent steps draw timestamps from the shared store clock
// in scheduling order, so timestamps differ from run to run while every
// cell's value history does not: the parallel workload's digest leaves them
// out.
func dumpStoreStamped(s *kvstore.Store, stamped bool) ([]byte, error) {
	var out []byte
	for _, name := range s.TableNames() {
		t, err := s.Table(name)
		if err != nil {
			return nil, err
		}
		for _, c := range t.Scan(kvstore.ScanOptions{}) {
			for _, v := range t.GetVersions(c.Row, c.Column, 0) {
				if !stamped {
					v.Timestamp = 0
				}
				out = appendDumpLine(out, name, c.Row, c.Column, v)
			}
		}
	}
	return out, nil
}

func appendDumpLine(out []byte, table, row, col string, v kvstore.Version) []byte {
	return fmt.Appendf(out, "%s %s/%s @%d = %x\n", table, row, col, v.Timestamp, v.Value)
}

// digest is the SHA-256 over the application-phase decision matrix and the
// final live-store dump. It is exact for a seed: a traced run, a repeat run
// and a later commit's run must all print the same value.
func digest(p *phase, dump []byte) string {
	sum := sha256.New()
	row := make([]byte, p.gated)
	for _, ex := range p.executed {
		for i, v := range ex {
			row[i] = '0'
			if v {
				row[i] = '1'
			}
		}
		sum.Write(row)
		sum.Write([]byte{'\n'})
	}
	sum.Write(dump)
	return hex.EncodeToString(sum.Sum(nil))
}
