package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"

	"smartflux"
)

// trace accumulates the records of one or more JSONL streams. Span records
// are keyed by their deterministic ID with last-record-wins semantics, so a
// retried wave (which re-emits the same IDs) replaces its failed first try
// instead of double-counting it.
type trace struct {
	spans     map[string]smartflux.SpanEvent
	order     []string // first-seen span ID order, for stable iteration
	decisions []smartflux.DecisionEvent
	malformed int // lines that were not valid JSON records
	unknown   int // valid records of a type this binary doesn't know
}

func newTrace() *trace {
	return &trace{spans: make(map[string]smartflux.SpanEvent)}
}

// readFrom parses one JSONL stream into the trace. Malformed lines (e.g. a
// torn tail from a crashed writer) are counted, not fatal; only I/O errors
// are returned.
func (tr *trace) readFrom(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(strings.TrimSpace(string(line))) == 0 {
			continue
		}
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			tr.malformed++
			continue
		}
		switch probe.Type {
		case "span":
			var ev smartflux.SpanEvent
			if err := json.Unmarshal(line, &ev); err != nil || ev.ID == "" {
				tr.malformed++
				continue
			}
			if _, seen := tr.spans[ev.ID]; !seen {
				tr.order = append(tr.order, ev.ID)
			}
			tr.spans[ev.ID] = ev
		case "decision":
			var ev smartflux.DecisionEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				tr.malformed++
				continue
			}
			tr.decisions = append(tr.decisions, ev)
		default:
			tr.unknown++
		}
	}
	return sc.Err()
}

// waveSteps groups the step spans of each wave, reassembling the causal tree
// from the flat record stream: a step belongs to the wave span its Parent
// names, falling back to its Wave field when the wave span itself is missing
// (truncated log). Map iteration never leaks into output order; callers sort.
func (tr *trace) waveSteps() map[int][]smartflux.SpanEvent {
	byWave := make(map[int][]smartflux.SpanEvent)
	for _, id := range tr.order {
		ev := tr.spans[id]
		if ev.Name != "step" || ev.Wave < 0 {
			continue
		}
		byWave[ev.Wave] = append(byWave[ev.Wave], ev)
	}
	return byWave
}

// waveSpan returns the wave span for a wave index, if present.
func (tr *trace) waveSpan(wave int) (smartflux.SpanEvent, bool) {
	ev, ok := tr.spans[fmt.Sprintf("run/w%d", wave)]
	return ev, ok
}

// critPath holds one wave's critical-path result.
type critPath struct {
	wave     int
	waveDur  int64 // observed wave span duration; 0 when the wave span is missing
	cpDur    int64 // sum of step durations along the critical chain
	path     []string
	executed int
	skipped  int
	degraded int
}

// criticalPath computes, for one wave's steps, the dependency chain with the
// largest total duration. Edges come from each span's WaitFor list — the
// sibling step spans its start waited on. cp(s) = dur(s) + max cp(pred);
// missing predecessors (truncated logs) and cycles (corrupt input) contribute
// zero rather than failing the analysis.
func criticalPath(wave int, steps []smartflux.SpanEvent, waveDur int64) critPath {
	byID := make(map[string]smartflux.SpanEvent, len(steps))
	for _, s := range steps {
		byID[s.ID] = s
	}
	memo := make(map[string]int64, len(steps))
	best := make(map[string]string, len(steps)) // span ID -> predecessor on its critical chain
	visiting := make(map[string]bool)
	var cp func(id string) int64
	cp = func(id string) int64 {
		if v, ok := memo[id]; ok {
			return v
		}
		if visiting[id] {
			return 0 // cycle: corrupt input, don't recurse forever
		}
		visiting[id] = true
		s := byID[id]
		var maxPred int64
		for _, pred := range s.WaitFor {
			if _, ok := byID[pred]; !ok {
				continue
			}
			if v := cp(pred); v > maxPred || (v == maxPred && best[id] == "") {
				maxPred = v
				best[id] = pred
			}
		}
		delete(visiting, id)
		v := s.DurNanos + maxPred
		memo[id] = v
		return v
	}

	out := critPath{wave: wave, waveDur: waveDur}
	var tail string
	for _, s := range steps {
		switch {
		case s.Degraded:
			out.degraded++
		case s.Skipped:
			out.skipped++
		default:
			out.executed++
		}
		if v := cp(s.ID); v > out.cpDur || tail == "" {
			out.cpDur = v
			tail = s.ID
		}
	}
	for id := tail; id != ""; id = best[id] {
		out.path = append(out.path, byID[id].Step)
	}
	// The chain was walked tail-to-head; present it in execution order.
	for i, j := 0, len(out.path)-1; i < j; i, j = i+1, j-1 {
		out.path[i], out.path[j] = out.path[j], out.path[i]
	}
	return out
}

// layerStat aggregates one (layer, op) latency population.
type layerStat struct {
	layer string
	name  string
	durs  []int64
	total int64
	bytes int64
	errs  int
}

// layerStats groups every non-structural span by (layer, name). Wave and
// run-level spans are containers, not operations: including them would
// double-count their children's time.
func (tr *trace) layerStats() []*layerStat {
	byKey := make(map[string]*layerStat)
	for _, id := range tr.order {
		ev := tr.spans[id]
		if ev.Name == "wave" || ev.Name == "run" || ev.Name == "client" {
			continue
		}
		key := ev.Layer + "/" + ev.Name
		st, ok := byKey[key]
		if !ok {
			st = &layerStat{layer: ev.Layer, name: ev.Name}
			byKey[key] = st
		}
		st.durs = append(st.durs, ev.DurNanos)
		st.total += ev.DurNanos
		st.bytes += ev.Bytes
		if ev.Err != "" {
			st.errs++
		}
	}
	out := make([]*layerStat, 0, len(byKey))
	for _, st := range byKey {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].layer != out[j].layer {
			return out[i].layer < out[j].layer
		}
		return out[i].total > out[j].total
	})
	return out
}

// percentile returns the q-quantile (0 < q <= 1) of a sorted population.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// hotSpot aggregates retries/degradations per operation site.
type hotSpot struct {
	site     string // step ID for engine spans, layer/op otherwise
	retries  int
	spans    int
	degraded int
	lastErr  string
}

// hotSpots aggregates every span that retried, degraded or failed, keyed by
// the step it served (engine spans) or the operation kind (store/net/wal).
func (tr *trace) hotSpots() []*hotSpot {
	byKey := make(map[string]*hotSpot)
	for _, id := range tr.order {
		ev := tr.spans[id]
		if ev.Retries == 0 && !ev.Degraded && ev.Err == "" {
			continue
		}
		if ev.Name == "attempt" {
			continue // counted via their parent's Retries
		}
		key := ev.Layer + "/" + ev.Name
		if ev.Step != "" {
			key = "step " + ev.Step
		}
		hs, ok := byKey[key]
		if !ok {
			hs = &hotSpot{site: key}
			byKey[key] = hs
		}
		hs.spans++
		hs.retries += ev.Retries
		if ev.Degraded {
			hs.degraded++
		}
		if ev.Err != "" {
			hs.lastErr = ev.Err
		}
	}
	out := make([]*hotSpot, 0, len(byKey))
	for _, hs := range byKey {
		out = append(out, hs)
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := out[i].retries+out[i].degraded, out[j].retries+out[j].degraded
		if ri != rj {
			return ri > rj
		}
		return out[i].site < out[j].site
	})
	return out
}

// epsWave is one row of the ε-spend timeline.
type epsWave struct {
	wave       int
	executed   int
	skipped    int
	degraded   int
	violations int
	epsSum     float64 // Σ sim-ε charged by executed steps this wave
	iotaSum    float64
	decided    int // gated decisions this wave (0 = row built from spans only)
}

// epsTimeline builds the per-wave ε-spend rows, preferring decision records
// (which carry the decider's view: verdicts, violations, the full ι vector)
// and falling back to step spans when a log has spans only.
func (tr *trace) epsTimeline() []epsWave {
	byWave := make(map[int]*epsWave)
	row := func(w int) *epsWave {
		r, ok := byWave[w]
		if !ok {
			r = &epsWave{wave: w}
			byWave[w] = r
		}
		return r
	}
	for _, d := range tr.decisions {
		r := row(d.Wave)
		r.decided++
		switch {
		case d.Degraded:
			r.degraded++
		case d.Executed:
			r.executed++
			r.epsSum += d.SimEps
		default:
			r.skipped++
		}
		if d.Violation {
			r.violations++
		}
		r.iotaSum += d.Impact
	}
	if len(tr.decisions) == 0 {
		for _, id := range tr.order {
			ev := tr.spans[id]
			if ev.Name != "step" || ev.Wave < 0 {
				continue
			}
			r := row(ev.Wave)
			switch {
			case ev.Degraded:
				r.degraded++
			case ev.Skipped:
				r.skipped++
			default:
				r.executed++
				r.epsSum += ev.Eps
			}
			r.iotaSum += ev.Iota
		}
	}
	out := make([]epsWave, 0, len(byWave))
	for _, r := range byWave {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].wave < out[j].wave })
	return out
}

// ms renders nanoseconds as milliseconds with microsecond precision.
func ms(ns int64) string { return fmt.Sprintf("%.3f", float64(ns)/1e6) }

// bar renders v scaled against max as a fixed-width ASCII bar.
func bar(v, max float64, width int) string {
	if max <= 0 || v <= 0 {
		return ""
	}
	n := int(v / max * float64(width))
	if n > width {
		n = width
	}
	if n == 0 {
		n = 1
	}
	return strings.Repeat("#", n)
}

// writeReport renders the full analysis. top bounds the hot-spot list; waves
// bounds the per-wave tables (0 = unlimited).
func writeReport(w io.Writer, tr *trace, top, waves int) {
	byWave := tr.waveSteps()
	waveIdx := make([]int, 0, len(byWave))
	for wv := range byWave {
		waveIdx = append(waveIdx, wv)
	}
	sort.Ints(waveIdx)

	layers := make(map[string]bool)
	for _, id := range tr.order {
		layers[tr.spans[id].Layer] = true
	}
	fmt.Fprintf(w, "== Trace summary ==\n")
	fmt.Fprintf(w, "spans: %d across %d waves and %d layers; decisions: %d",
		len(tr.spans), len(byWave), len(layers), len(tr.decisions))
	if tr.malformed > 0 || tr.unknown > 0 {
		fmt.Fprintf(w, "; skipped %d malformed and %d unknown-type lines", tr.malformed, tr.unknown)
	}
	fmt.Fprintln(w)

	limit := func(idx []int) []int {
		if waves > 0 && len(idx) > waves {
			return idx[:waves]
		}
		return idx
	}

	if len(waveIdx) > 0 {
		fmt.Fprintf(w, "\n== Per-wave critical path ==\n")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "wave\tdur(ms)\tcritical(ms)\tslack(ms)\texec\tskip\tdegr\tpath")
		for _, wv := range limit(waveIdx) {
			var waveDur int64
			if wsp, ok := tr.waveSpan(wv); ok {
				waveDur = wsp.DurNanos
			}
			cp := criticalPath(wv, byWave[wv], waveDur)
			slack := cp.waveDur - cp.cpDur
			if slack < 0 {
				slack = 0
			}
			fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%d\t%d\t%d\t%s\n",
				wv, ms(cp.waveDur), ms(cp.cpDur), ms(slack),
				cp.executed, cp.skipped, cp.degraded, strings.Join(cp.path, " -> "))
		}
		_ = tw.Flush()
	}

	if stats := tr.layerStats(); len(stats) > 0 {
		fmt.Fprintf(w, "\n== Per-layer latency ==\n")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "layer\top\tcount\terrs\ttotal(ms)\tp50(ms)\tp95(ms)\tp99(ms)\tbytes")
		for _, st := range stats {
			sort.Slice(st.durs, func(i, j int) bool { return st.durs[i] < st.durs[j] })
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%s\t%s\t%s\t%s\t%d\n",
				st.layer, st.name, len(st.durs), st.errs, ms(st.total),
				ms(percentile(st.durs, 0.50)), ms(percentile(st.durs, 0.95)),
				ms(percentile(st.durs, 0.99)), st.bytes)
		}
		_ = tw.Flush()
	}

	if hs := tr.hotSpots(); len(hs) > 0 {
		fmt.Fprintf(w, "\n== Retry / degradation hot spots ==\n")
		if top > 0 && len(hs) > top {
			hs = hs[:top]
		}
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "site\tspans\tretries\tdegraded\tlast error")
		for _, h := range hs {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%s\n", h.site, h.spans, h.retries, h.degraded, h.lastErr)
		}
		_ = tw.Flush()
	}

	if rows := tr.epsTimeline(); len(rows) > 0 {
		fmt.Fprintf(w, "\n== ε-spend timeline ==\n")
		var maxEps float64
		for _, r := range rows {
			if r.epsSum > maxEps {
				maxEps = r.epsSum
			}
		}
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "wave\texec\tskip\tdegr\tviol\tΣε\t")
		shown := rows
		if waves > 0 && len(shown) > waves {
			shown = shown[:waves]
		}
		for _, r := range shown {
			fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%.4f\t%s\n",
				r.wave, r.executed, r.skipped, r.degraded, r.violations, r.epsSum,
				bar(r.epsSum, maxEps, 20))
		}
		_ = tw.Flush()
	}
}
