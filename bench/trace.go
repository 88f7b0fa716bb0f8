package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"smartflux/internal/engine"
	"smartflux/internal/kvstore"
	"smartflux/internal/metric"
	"smartflux/internal/obs"
	"smartflux/internal/workflow"
)

// Tracing from outside. The traced run records spans from this package only,
// through public hook points: the wave loop brackets RunWave and the backend
// epilogue, every Step.Proc and the Decider are wrapped, and the WAL append
// or synchronous cluster ship of each mutation batch is timed by observer
// bracketing — Table.notify calls observers in subscription order, so one
// benchmark observer subscribed before the backend's and one after see the
// backend's work between them, with no change to the program. Spans stay in
// memory until the run ends. Every method is a no-op on a nil *tracer, so
// the untraced run pays one nil check per hook.
//
// The traced run traces every other wave, chosen by a fixed hash of the wave
// index. The waves in between run with the wrappers installed but switched
// off, and are the reference the tracing overhead is measured against: this
// sandbox's speed drifts by 10–20 % between two runs minutes apart, which is
// more than any overhead worth reporting, so only an interleaved comparison
// inside one run resolves it.

type spanKind uint8

const (
	kindWave       spanKind = iota // root: one per wave, the timed region
	kindEngine                     // engine.RunWave
	kindProc                       // workflow.proc.<step>: one Step.Proc execution
	kindDecide                     // core.decide: one Decider.Decide call
	kindAppend                     // durable.append: WAL append of one mutation batch
	kindShip                       // cluster.ship: synchronous ship of one mutation batch
	kindCheckpoint                 // core.checkpoint: per-wave checkpoint encode
	kindCommit                     // durable.commit: Manager.Commit (record + fsync, rotation)
)

// span is one timed interval; times are nanoseconds since the tracer's epoch.
type span struct {
	kind       spanKind
	step       int16 // index into tracer.steps; -1 when the span has no step
	wave       int32
	n          int32 // mutations covered (append, ship); verdict (decide)
	start, dur int64
	bytes      int64
}

type tracer struct {
	epoch time.Time
	steps []workflow.StepID

	// mu guards spans: with Parallelism 2 proc spans arrive from two worker
	// goroutines while the coordinator records decide spans.
	mu    sync.Mutex
	spans []span

	wave      int32
	on        bool  // true inside the timed region of a traced wave; set by the wave loop only
	waveStart int64 // start of the current wave and engine spans

	// Bracketing state. Backends run at Parallelism 1, so the pending batch
	// and the current step are plain fields; the counters are atomic because
	// the in-memory workloads notify from two goroutines.
	bracket   spanKind // kindAppend, kindShip, or kindWave when no backend is attached
	curStep   int16
	pendingN  int32
	pendingB  int64
	pendingT  int64
	mutations atomic.Int64
	mutBytes  atomic.Int64

	// capture is the wave — the first traced one past the middle — whose
	// mutations and end-of-wave ι snapshots are kept as probe inputs.
	capture   int32
	captured  []kvstore.Mutation
	inputs    []gatedInput
	midStates []metric.State
}

func newTracer(w workload, apply int) *tracer {
	tr := &tracer{
		epoch:   time.Now(),
		bracket: kindWave,
		curStep: -1,
		capture: int32(apply / 2),
		spans:   make([]span, 0, apply*16),
	}
	for !tracedWave(int(tr.capture)) {
		tr.capture++
	}
	switch w.backend {
	case backendDurable:
		tr.bracket = kindAppend
	case backendCluster:
		tr.bracket = kindShip
	}
	return tr
}

func (tr *tracer) now() int64 {
	if tr == nil {
		return 0
	}
	return int64(time.Since(tr.epoch))
}

// record appends a span of the current wave that started at t0 and ends now.
func (tr *tracer) record(kind spanKind, t0, bytes int64) {
	if tr == nil || !tr.on {
		return
	}
	tr.add(span{kind: kind, step: -1, wave: tr.wave, start: t0, dur: tr.now() - t0, bytes: bytes})
}

func (tr *tracer) add(s span) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// tracedWave reports whether the traced run traces wave w: a fixed,
// aperiodic half of the waves (the low bit of a splitmix64 hash), so that no
// period in the workload lines up with the choice.
func tracedWave(w int) bool {
	z := uint64(w) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z^(z>>31))&1 == 0
}

func (tr *tracer) beginWave(w int) {
	if tr == nil || !tracedWave(w) {
		return
	}
	tr.wave = int32(w)
	tr.on = true
	tr.waveStart = tr.now()
}

func (tr *tracer) endEngine() {
	if tr != nil && tr.on {
		tr.record(kindEngine, tr.waveStart, 0)
	}
}

func (tr *tracer) endWave() {
	if tr == nil || !tr.on {
		return
	}
	tr.record(kindWave, tr.waveStart, 0)
	tr.on = false
}

// afterWave runs outside the timed region; on the capture wave it keeps the
// ι snapshots the metric.observe probe uses as baselines.
func (tr *tracer) afterWave(store *kvstore.Store) {
	if tr != nil && tr.wave == tr.capture && tr.midStates == nil {
		tr.midStates = snapshotAll(tr.inputs, store)
	}
}

// timedProc wraps one Step.Proc. The engine reads step.Proc at execute time,
// so replacing it on the built workflow needs no change to the program. Runs
// outside a traced wave's timed region (untraced waves, the oracle's
// hypothetical executions) pass through unrecorded.
type timedProc struct {
	tr    *tracer
	step  int16
	inner workflow.Processor
}

func (p *timedProc) Process(ctx *workflow.Context) error {
	tr := p.tr
	if !tr.on {
		return p.inner.Process(ctx)
	}
	if tr.bracket != kindWave {
		tr.curStep = p.step // the step the next bracketed batch belongs to
	}
	t0 := tr.now()
	err := p.inner.Process(ctx)
	tr.add(span{kind: kindProc, step: p.step, wave: tr.wave, start: t0, dur: tr.now() - t0})
	return err
}

func (tr *tracer) wrapProcs(wf *workflow.Workflow) error {
	order, err := wf.Order()
	if err != nil {
		return err
	}
	tr.steps = order
	if tr.inputs, err = gatedInputs(wf); err != nil {
		return err
	}
	for i, id := range order {
		step, err := wf.Step(id)
		if err != nil {
			return err
		}
		step.Proc = &timedProc{tr: tr, step: int16(i), inner: step.Proc}
	}
	return nil
}

// timedDecider wraps the Decider; stepIdx is the gated index, which the
// tracer maps back to the step through gated.
type timedDecider struct {
	tr    *tracer
	inner engine.Decider
}

func (d *timedDecider) Name() string { return d.inner.Name() }

func (d *timedDecider) Decide(wave, stepIdx int, impacts []float64) bool {
	tr := d.tr
	if !tr.on {
		return d.inner.Decide(wave, stepIdx, impacts)
	}
	t0 := tr.now()
	verdict := d.inner.Decide(wave, stepIdx, impacts)
	s := span{kind: kindDecide, step: int16(stepIdx), wave: tr.wave, start: t0, dur: tr.now() - t0}
	if verdict {
		s.n = 1
	}
	tr.add(s)
	return verdict
}

func (tr *tracer) wrapDecider(d engine.Decider) engine.Decider {
	return &timedDecider{tr: tr, inner: d}
}

// subscribeBefore installs the opening bracket on every table of s, existing
// and future. Call it before the backend attaches.
func (tr *tracer) subscribeBefore(s *kvstore.Store) {
	if tr != nil {
		tr.subscribe(s, kvstore.ObserverFunc(tr.onBefore))
	}
}

// subscribeAfter installs the closing bracket. Call it after the backend has
// attached; with no backend the brackets close on nothing and only count.
func (tr *tracer) subscribeAfter(s *kvstore.Store) {
	if tr != nil && tr.bracket != kindWave {
		tr.subscribe(s, kvstore.ObserverFunc(tr.onAfter))
	}
}

func (tr *tracer) subscribe(s *kvstore.Store, o kvstore.Observer) {
	for _, name := range s.TableNames() {
		if t, err := s.Table(name); err == nil {
			t.Subscribe(o)
		}
	}
	// Creation hooks run in registration order, so a late table gets its
	// observers in the same before / backend / after order.
	s.OnTableCreate(func(t *kvstore.Table) { t.Subscribe(o) })
}

// onBefore sees every mutation of a batch before the backend's observer sees
// the first: it counts, and remembers when the last one passed.
func (tr *tracer) onBefore(m kvstore.Mutation) {
	if !tr.on {
		return
	}
	size := int64(len(m.Table) + len(m.Row) + len(m.Column) + len(m.New))
	tr.mutations.Add(1)
	tr.mutBytes.Add(size)
	if tr.wave == tr.capture {
		tr.mu.Lock()
		tr.captured = append(tr.captured, m)
		tr.mu.Unlock()
	}
	if tr.bracket != kindWave {
		tr.pendingN++
		tr.pendingB += size
		tr.pendingT = tr.now()
	}
}

// onAfter runs once the backend's observer has handled the whole batch: the
// first call closes the bracket, the rest of the batch finds nothing pending.
func (tr *tracer) onAfter(kvstore.Mutation) {
	if tr.pendingN == 0 {
		return
	}
	tr.add(span{kind: tr.bracket, step: tr.curStep, wave: tr.wave, n: tr.pendingN,
		start: tr.pendingT, dur: tr.now() - tr.pendingT, bytes: tr.pendingB})
	tr.pendingN, tr.pendingB = 0, 0
}

// layerTimes is the per-layer self-time breakdown of a traced phase. Self
// time is a span's duration minus the part of it its child spans cover, so
// the fields from waveSelf to commit sum to wave by construction.
type layerTimes struct {
	waves int
	wave  int64 // Σ wave spans

	waveSelf   int64 // driver loop overhead between the spans below
	engineSelf int64 // RunWave minus the time a proc or decide was running
	proc       int64 // time a proc was running, minus decides and brackets inside
	decide     int64
	bracket    int64 // durable.append or cluster.ship
	checkpoint int64
	commit     int64

	procByStep []int64 // Σ (proc − brackets inside), by tracer.steps index
	decides    []int64 // every decide duration
	ships      []int64 // per-mutation share of every bracket (dur ÷ n)
	batches    int
	waveDurs   []int64
}

// layers computes the breakdown. Children of engine.RunWave may overlap at
// Parallelism 2, so the engine's self time subtracts the union of its child
// intervals, not their sum.
func (tr *tracer) layers() *layerTimes {
	lt := &layerTimes{procByStep: make([]int64, len(tr.steps))}
	byWave := make(map[int32][]span)
	for _, s := range tr.spans {
		byWave[s.wave] = append(byWave[s.wave], s)
	}
	for _, spans := range byWave {
		var waveDur, engineDur, decide, bracket int64
		var children []span
		for _, s := range spans {
			switch s.kind {
			case kindWave:
				waveDur = s.dur
			case kindEngine:
				engineDur = s.dur
			case kindProc:
				children = append(children, s)
				lt.procByStep[s.step] += s.dur
			case kindDecide:
				children = append(children, s)
				decide += s.dur
				lt.decides = append(lt.decides, s.dur)
			case kindAppend, kindShip:
				bracket += s.dur
				lt.batches++
				if s.step >= 0 {
					lt.procByStep[s.step] -= s.dur
				}
				if s.kind == kindShip {
					for i := int32(0); i < s.n; i++ {
						lt.ships = append(lt.ships, s.dur/int64(s.n))
					}
				}
			case kindCheckpoint:
				lt.checkpoint += s.dur
			case kindCommit:
				lt.commit += s.dur
			}
		}
		covered := unionLength(children)
		lt.waves++
		lt.wave += waveDur
		lt.waveDurs = append(lt.waveDurs, waveDur)
		lt.engineSelf += engineDur - covered
		lt.proc += covered - decide - bracket
		lt.decide += decide
		lt.bracket += bracket
		lt.waveSelf += waveDur - engineDur
	}
	lt.waveSelf -= lt.checkpoint + lt.commit
	return lt
}

// unionLength returns the total time covered by at least one interval.
func unionLength(spans []span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var covered, end int64
	for _, s := range spans {
		stop := s.start + s.dur
		switch {
		case s.start >= end:
			covered += s.dur
			end = stop
		case stop > end:
			covered += stop - end
			end = stop
		}
	}
	return covered
}

// spanMeta maps span kinds onto the obs.SpanEvent vocabulary cmd/sftrace
// reads: name, latency layer, and the ID suffix under the wave or step.
var spanMeta = [...]struct{ name, layer, key string }{
	kindWave:       {"wave", "engine", ""},
	kindEngine:     {"engine.RunWave", "engine", "engine"},
	kindProc:       {"step", "store", ""},
	kindDecide:     {"core.decide", "ml", "decide"},
	kindAppend:     {"durable.append", "wal", "append"},
	kindShip:       {"cluster.ship", "net", "ship"},
	kindCheckpoint: {"core.checkpoint", "engine", "checkpoint"},
	kindCommit:     {"durable.commit", "wal", "commit"},
}

// writeSpans flushes the spans as obs.SpanEvent JSON lines with deterministic
// path-like IDs (run/w<wave>/<step>/…), so cmd/sftrace's critical-path and
// per-layer report runs on a benchmark trace unchanged. A skip verdict also
// emits a zero-length skipped step span, which is how sftrace counts skips.
func (tr *tracer) writeSpans(path string, gated []workflow.StepID) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	seq := make(map[string]int)
	for _, s := range tr.spans {
		meta := spanMeta[s.kind]
		wave := "run/w" + strconv.Itoa(int(s.wave))
		ev := obs.SpanEvent{
			Type: "span", Name: meta.name, Layer: meta.layer, Wave: int(s.wave), Attempt: -1,
			Parent: wave, StartNanos: tr.epoch.UnixNano() + s.start, DurNanos: s.dur, Bytes: s.bytes,
		}
		switch s.kind {
		case kindWave:
			ev.ID, ev.Parent = wave, ""
		case kindEngine, kindCheckpoint, kindCommit:
			ev.ID = wave + "/" + meta.key
		case kindProc:
			ev.Step = string(tr.steps[s.step])
			ev.ID = wave + "/" + ev.Step
		case kindDecide:
			ev.Step = string(gated[s.step])
			ev.Parent = wave + "/" + ev.Step
			ev.ID = ev.Parent + "/" + meta.key
			if s.n == 0 {
				skipped := ev
				skipped.ID, skipped.Parent = ev.Parent, wave
				skipped.Name, skipped.Layer = "step", "store"
				skipped.Skipped, skipped.DurNanos = true, 0
				if err := enc.Encode(skipped); err != nil {
					_ = f.Close()
					return err
				}
			}
		case kindAppend, kindShip:
			if s.step >= 0 {
				ev.Step = string(tr.steps[s.step])
				ev.Parent = wave + "/" + ev.Step
			}
			prefix := ev.Parent + "/" + meta.key
			ev.ID = prefix + strconv.Itoa(seq[prefix])
			seq[prefix]++
		}
		if err := enc.Encode(ev); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
