package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"smartflux/internal/stats"
	"smartflux/internal/workflow"
)

// options are the per-run settings shared by every mode.
type options struct {
	seed     int64
	setups   int    // set-ups per untraced run; setup_s is their median
	tmpDir   string // WAL directories live here
	traceOut string // when set, the traced run's spans are flushed here
}

// outcome is the result of one run of one workload, traced or not.
type outcome struct {
	Attempted int
	Failed    int
	Digest    string
	Problems  []string // failed correctness checks
	Metrics   map[string]float64

	lat []time.Duration // the timed region of every wave, for trace_overhead_share
}

func (o *outcome) correct() bool { return len(o.Problems) == 0 }

func (o *outcome) problem(format string, args ...any) {
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile is stats.Quantile (linear interpolation between closest ranks)
// reading 0 for an empty series; quantile(xs, 0.5) is the median.
func quantile(xs []float64, q float64) float64 {
	v, _ := stats.Quantile(xs, q) // the only error is ErrEmpty
	return v
}

// finish runs the checks every run shares — no failed wave, the QoD bound
// held with ≥ 95 % confidence, the backend's copy equals the live store —
// and fills in the digest.
func finish(o *outcome, r *rig, p *phase) {
	o.Attempted, o.Failed = p.waves, p.failed
	if p.failed > 0 {
		o.problem("%d of %d waves failed; first: %v", p.failed, p.waves, p.firstErr)
	}
	if conf := p.boundConfidence(); conf < 0.95 {
		o.problem("bound_confidence %.4f < 0.95 over %d checked waves", conf, len(p.violations))
	}
	store := r.h.Live().Store()
	if err := r.backend.verify(store); err != nil {
		o.problem("%v", err)
	}
	dump, err := dumpStoreStamped(store, r.w.parallelism == 1)
	if err != nil {
		o.problem("dump: %v", err)
	}
	o.Digest = digest(p, dump)
	if !o.correct() {
		o.Failed = p.waves // a failed correctness check fails every wave
	}
}

// runUntraced is the measured run: opt.setups set-ups (the last one carries
// the application phase), the checks, and the end-to-end metrics.
func runUntraced(w workload, opt options) (*outcome, error) {
	var r *rig
	var setups []float64
	for i := 0; i < opt.setups; i++ {
		if r != nil {
			r.close()
		}
		var err error
		if r, err = setUp(w, opt.seed, opt.tmpDir, nil); err != nil {
			return nil, err
		}
		setups = append(setups, r.setup.Seconds())
	}
	defer r.close()
	runtime.GC() // start the timed phase from a collected heap
	p := r.runPhase(w.apply, w.check, nil)

	o := &outcome{Metrics: make(map[string]float64)}
	finish(o, r, p)
	o.lat = p.lat
	var total time.Duration
	for _, d := range p.lat {
		total += d
	}
	o.Metrics["setup_s"] = quantile(setups, 0.5)
	o.Metrics["waves_per_s"] = float64(p.waves) / total.Seconds()
	o.Metrics["bound_confidence"] = p.boundConfidence()
	return o, nil
}

// runTraced is the attribution run: same seed, set-up, waves and oracle as
// the untraced run, with the tracer's wrappers and brackets installed and
// switched on for half the waves, then the layer probes. untraced is the same
// seed's untraced outcome: its digest must repeat exactly, and its per-wave
// times normalise this run's when the tracing overhead is computed.
func runTraced(w workload, opt options, untraced *outcome) (*outcome, error) {
	tr := newTracer(w, w.apply)
	r, err := setUp(w, opt.seed, opt.tmpDir, tr)
	if err != nil {
		return nil, err
	}
	defer r.close()
	cb, _ := r.backend.(*clusterBackend)
	var records uint64
	if cb != nil {
		records = cb.records()
	}
	runtime.GC()
	p := r.runPhase(w.apply, w.check, tr)
	if cb != nil {
		records = cb.records() - records // logged during the phase, oracle writes included
	}

	o := &outcome{Metrics: make(map[string]float64)}
	finish(o, r, p)
	if o.Digest != untraced.Digest {
		o.problem("digest %s of the traced run differs from the untraced run's %s", o.Digest, untraced.Digest)
	}
	m := o.Metrics
	lt := tr.layers()
	waves := float64(lt.waves) // per-wave figures are over the traced waves
	perWave := func(ns int64) float64 { return float64(ns) / 1e6 / waves }
	share := func(ns int64) float64 { return float64(ns) / float64(lt.wave) }

	// The latency percentiles are the untraced run's: tracing is off there.
	lat := durationsToFloat(untraced.lat, 1e6)
	m["wave_p50_ms"] = quantile(lat, 0.50)
	m["wave_p95_ms"] = quantile(lat, 0.95)
	m["wave_p99_ms"] = quantile(lat, 0.99)
	m["trace_overhead_share"] = traceOverhead(p.lat, untraced.lat)
	m["core.exec_savings"] = p.execSavings()
	m["engine.self_ms_per_wave"] = perWave(lt.engineSelf)
	m["engine.self_share"] = share(lt.engineSelf)
	m["engine.steps_executed_per_wave"] = float64(p.totalExecutions) / float64(p.waves)
	m["engine.steps_skipped_per_wave"] = float64(p.gated*p.waves-p.gatedExecutions) / float64(p.waves)
	m["engine.allocs_per_wave"] = float64(p.mallocs) / float64(p.allocWaves)
	m["engine.alloc_kb_per_wave"] = float64(p.allocBytes) / 1024 / float64(p.allocWaves)
	m["workflow.proc_ms_per_wave"] = perWave(lt.proc)
	m["workflow.proc_share"] = share(lt.proc)
	for i, id := range tr.steps {
		if name := procMetric(w.family, id); perLayerUnit(name) != "" {
			m[name] = perWave(lt.procByStep[i])
		}
	}
	decides := durationsToFloat(lt.decides, 1e3)
	m["core.decide_p50_us"] = quantile(decides, 0.50)
	m["core.decide_p95_us"] = quantile(decides, 0.95)
	m["core.decides_per_wave"] = float64(len(decides)) / waves
	m["core.decide_share"] = share(lt.decide)
	m["ml.model_build_ms"] = ms(r.modelBuild)
	m["core.train_rows"] = float64(r.session.KnowledgeBase().Len())
	m["kvstore.mutations_per_wave"] = float64(tr.mutations.Load()) / waves
	m["kvstore.mutation_bytes_per_wave"] = float64(tr.mutBytes.Load()) / waves
	m["driver.self_share"] = share(lt.waveSelf)

	if err := probeLayers(o, w, r, p, tr, lt); err != nil {
		o.problem("probe: %v", err)
	}

	switch b := r.backend.(type) {
	case *durableBackend:
		st := b.mgr.Stats()
		m["durable.append_ms_per_wave"] = perWave(lt.bracket)
		m["durable.commit_ms_per_wave"] = perWave(lt.commit)
		m["core.checkpoint_ms_per_wave"] = perWave(lt.checkpoint)
		m["core.checkpoint_bytes"] = float64(b.payloadBytes)
		m["durable.share"] = share(lt.bracket + lt.commit + lt.checkpoint)
		m["durable.wal_bytes_per_wave"] = float64(st.AppendedBytes) / float64(p.waves)
		m["durable.appends_per_wave"] = float64(st.Appends) / float64(p.waves)
		m["durable.fsyncs_per_wave"] = float64(st.Fsyncs) / float64(p.waves)
		m["durable.snapshots"] = float64(st.Snapshots)
		m["durable.recover_ms"] = ms(b.recover)
	case *clusterBackend:
		ships := durationsToFloat(lt.ships, 1e3)
		m["cluster.ship_ms_per_wave"] = perWave(lt.bracket)
		m["cluster.ship_share"] = share(lt.bracket)
		m["cluster.ship_p50_us"] = quantile(ships, 0.50)
		m["cluster.ships_per_wave"] = float64(len(ships)) / waves
		m["cluster.records_per_wave"] = float64(records) / float64(p.waves)
		m["cluster.attach_ms"] = ms(r.attach)
	}

	if opt.traceOut != "" {
		if err := tr.writeSpans(opt.traceOut, r.h.Live().GatedSteps()); err != nil {
			return nil, fmt.Errorf("trace-out: %w", err)
		}
	}
	return o, nil
}

// traceOverhead is the share by which tracing slows a wave. Wave i does the
// same work in both runs, so lat[i] ÷ base[i] cancels what the wave costs and
// leaves the speed of the machine at that moment times the tracing overhead;
// the ratio's median over the traced waves, divided by its median over the
// untraced waves of the same run, cancels the machine too.
func traceOverhead(lat, base []time.Duration) float64 {
	var on, off []float64
	for i := 0; i < len(lat) && i < len(base); i++ {
		if ratio := float64(lat[i]) / float64(base[i]); tracedWave(i) {
			on = append(on, ratio)
		} else {
			off = append(off, ratio)
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return 0
	}
	return quantile(on, 0.5)/quantile(off, 0.5) - 1
}

// probeLayers runs the layer probes on inputs captured from the traced phase.
func probeLayers(o *outcome, w workload, r *rig, p *phase, tr *tracer, lt *layerTimes) error {
	m := o.Metrics
	store := r.h.Live().Store()
	waves := float64(lt.waves)

	snap, cells := probeSnapshot(tr.inputs, store)
	observe := probeObserve(tr.inputs, tr.midStates, snapshotAll(tr.inputs, store))
	m["kvstore.snapshot_ms_per_wave"] = ms(snap)
	m["kvstore.cells_scanned_per_wave"] = float64(cells)
	m["metric.observe_ms_per_wave"] = ms(observe)
	m["engine.unattributed_share"] = (float64(lt.engineSelf)/waves - float64(snap+observe)) / (float64(lt.wave) / waves)

	if pred, err := r.session.Predictor(); err == nil && !w.sync {
		score, err := medianOf(len(p.impacts), func(i int) error {
			_, err := pred.Scores(p.impacts[i])
			return err
		})
		if err != nil {
			return err
		}
		m["ml.score_p50_us"] = us(score)
	}

	apply, err := probeApply(tr.captured)
	if err != nil {
		return err
	}
	m["kvstore.apply_ms_per_wave"] = ms(apply)

	cb, ok := r.backend.(*clusterBackend)
	if !ok {
		return nil
	}
	enc, dec, bytes, err := probeWire(tr.captured)
	if err != nil {
		return err
	}
	m["wire.encode_us_per_wave"] = us(enc)
	m["wire.decode_us_per_wave"] = us(dec)
	m["wire.bytes_per_wave"] = float64(bytes)
	ping, put, err := probeKVNet()
	if err != nil {
		return err
	}
	m["kvnet.ping_p50_us"] = us(ping)
	m["kvnet.put_p50_us"] = us(put)
	cput, err := probeClusterPut(cb)
	if err != nil {
		return err
	}
	m["cluster.put_p50_us"] = us(cput)
	return nil
}

// durationsToFloat converts nanosecond durations to floats in the unit `per`
// nanoseconds long.
func durationsToFloat[T ~int64](ns []T, per float64) []float64 {
	out := make([]float64, len(ns))
	for i, d := range ns {
		out[i] = float64(d) / per
	}
	return out
}

// procMetric names the per-step proc metric of a step.
func procMetric(family string, id workflow.StepID) string {
	return "workflow.proc." + family + "." + string(id) + "_ms_per_wave"
}

// traceFile names one workload's span file: the -trace-out path itself when
// a single workload runs, the workload name prefixed to its base otherwise.
func traceFile(path, workload string, single bool) string {
	if path == "" || single {
		return path
	}
	return filepath.Join(filepath.Dir(path), workload+"."+filepath.Base(path))
}
