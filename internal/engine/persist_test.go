package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"maps"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"smartflux/internal/metric"
	"smartflux/internal/workflow"
)

// captureCommitter records every wave checkpoint it is handed.
type captureCommitter struct {
	cps []*HarnessCheckpoint
}

func (c *captureCommitter) CommitWave(cp *HarnessCheckpoint) error {
	c.cps = append(c.cps, cp)
	return nil
}

// equalResults compares every series of two results bitwise.
func equalResults(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Waves != want.Waves {
		t.Fatalf("Waves = %d, want %d", got.Waves, want.Waves)
	}
	if got.Policy != want.Policy {
		t.Fatalf("Policy = %q, want %q", got.Policy, want.Policy)
	}
	equalFloatMatrix(t, "RefImpacts", got.RefImpacts, want.RefImpacts)
	equalFloatMatrix(t, "RefSimErrors", got.RefSimErrors, want.RefSimErrors)
	equalFloatMatrix(t, "LiveImpacts", got.LiveImpacts, want.LiveImpacts)
	equalIntMatrix(t, "RefLabels", got.RefLabels, want.RefLabels)
	equalBoolMatrix(t, "LiveExecuted", got.LiveExecuted, want.LiveExecuted)
	equalBoolMatrix(t, "LiveDegraded", got.LiveDegraded, want.LiveDegraded)
	if len(got.Reports) != len(want.Reports) {
		t.Fatalf("Reports = %d entries, want %d", len(got.Reports), len(want.Reports))
	}
	for id, w := range want.Reports {
		g, ok := got.Reports[id]
		if !ok {
			t.Fatalf("Reports missing %q", id)
		}
		equalFloatMatrix(t, "Measured/"+string(id), [][]float64{g.Measured}, [][]float64{w.Measured})
		equalFloatMatrix(t, "Predicted/"+string(id), [][]float64{g.Predicted}, [][]float64{w.Predicted})
		equalFloatMatrix(t, "EndToEnd/"+string(id), [][]float64{g.EndToEnd}, [][]float64{w.EndToEnd})
		equalBoolMatrix(t, "Violations/"+string(id), [][]bool{g.Violations}, [][]bool{w.Violations})
	}
}

func equalFloatMatrix(t *testing.T, name string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s row %d: %d cols, want %d", name, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s[%d][%d] = %v, want bit-identical %v", name, i, j, got[i][j], want[i][j])
			}
		}
	}
}

func equalIntMatrix(t *testing.T, name string, got, want [][]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s[%d][%d] = %d, want %d", name, i, j, got[i][j], want[i][j])
			}
		}
	}
}

func equalBoolMatrix(t *testing.T, name string, got, want [][]bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s[%d][%d] = %v, want %v", name, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestHarnessCheckpointResumeBitIdentical runs a harness to a wave boundary,
// round-trips the committed checkpoint through gob, restores it, resumes,
// and compares every series against an uninterrupted run of the same length.
func TestHarnessCheckpointResumeBitIdentical(t *testing.T) {
	const total, cut = 30, 12
	build := testWorkload(0.05)

	clean, err := NewHarness(build, nil)
	if err != nil {
		t.Fatal(err)
	}
	cleanRes, err := clean.Run(total, NewRandom(0.5, 3))
	if err != nil {
		t.Fatal(err)
	}

	cc := &captureCommitter{}
	h, err := NewHarnessWithConfig(build, nil, HarnessConfig{Committer: cc})
	if err != nil {
		t.Fatal(err)
	}
	rnd := NewRandom(0.5, 3)
	if _, err := h.Run(cut, rnd); err != nil {
		t.Fatal(err)
	}
	if len(cc.cps) != cut {
		t.Fatalf("committed %d checkpoints, want %d", len(cc.cps), cut)
	}

	// Serialize the boundary checkpoint exactly as the durability layer does.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cc.cps[cut-1]); err != nil {
		t.Fatal(err)
	}
	var decoded HarnessCheckpoint
	if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
		t.Fatal(err)
	}

	// Perturb the decider, then restore: RestoreDeciderState must rewind it.
	rnd.Decide(0, 0, nil)
	rnd.Decide(0, 0, nil)

	res, err := h.RestoreCheckpoint(&decoded, rnd)
	if err != nil {
		t.Fatal(err)
	}
	if res.Waves != cut {
		t.Fatalf("restored Waves = %d, want %d", res.Waves, cut)
	}
	if err := h.ResumeRun(res, total-cut, rnd); err != nil {
		t.Fatal(err)
	}
	equalResults(t, res, cleanRes)
}

// TestCheckpointIsAView holds checkpoints to the contract the deep copy gave
// them, without the copy and without the gob round-trip that would hide
// aliasing. Every wave of a 20-wave run is checkpointed while the run goes on;
// afterwards the wave-5 checkpoint is restored three times — resumed twice
// under the run's own policy, then under a diverging one. Both faithful resumes
// must reproduce the uninterrupted run bit for bit, and every checkpoint —
// waves 5 and 10 among them — must still read as it did when it was taken. An
// uncapped view fails the last check: the diverging resume appends into rows
// the later checkpoints share.
func TestCheckpointIsAView(t *testing.T) {
	const total, cut = 20, 5
	build := testWorkload(0.05)
	ref, err := NewHarness(build, nil)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := ref.Run(total, NewRandom(0.5, 3))
	if err != nil {
		t.Fatal(err)
	}

	cc := &captureCommitter{}
	h, err := NewHarnessWithConfig(build, nil, HarnessConfig{Committer: cc})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(total, NewRandom(0.5, 3)); err != nil {
		t.Fatal(err)
	}
	cps := append([]*HarnessCheckpoint(nil), cc.cps...)

	for i, rnd := range []*Random{NewRandom(0.5, 3), NewRandom(0.5, 3), NewRandom(0.9, 99)} {
		res, err := h.RestoreCheckpoint(cps[cut-1], rnd)
		if err != nil {
			t.Fatal(err)
		}
		if res.Waves != cut {
			t.Fatalf("restore %d: Waves = %d, want %d", i, res.Waves, cut)
		}
		if err := h.ResumeRun(res, total-cut, rnd); err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			equalResults(t, res, clean)
		}
	}
	for k, cp := range cps {
		equalResults(t, cp.Result, clean.Slice(0, k+1))
	}
}

// TestRandomDeciderStateRoundTrip exports a mid-sequence decider state into
// a fresh decider and checks the verdict streams stay aligned.
func TestRandomDeciderStateRoundTrip(t *testing.T) {
	orig := NewRandom(0.3, 77)
	for i := 0; i < 25; i++ {
		orig.Decide(i, 0, nil)
	}
	state, err := orig.DeciderState()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewRandom(0.3, 77)
	if err := restored.RestoreDeciderState(state, 25); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if got, want := restored.Decide(i, 0, nil), orig.Decide(i, 0, nil); got != want {
			t.Fatalf("draw %d: restored = %v, original = %v", i, got, want)
		}
	}
	if err := restored.RestoreDeciderState([]byte{}, 25); err == nil {
		t.Fatal("RestoreDeciderState(empty): want error")
	}
}

// TestRestoreCheckpointRefusesOversizedDraws: a random-decider state is a draw
// count restore replays, and ten bytes can claim 2^64-1 of them. A checkpoint
// whose state claims more draws than its own result has decisions — one per
// wave and gated step — must be refused before anything is replayed (the
// deadline: the replay used to spin for as long as the count said), leaving
// harness and decider a pair that was never restored into.
func TestRestoreCheckpointRefusesOversizedDraws(t *testing.T) {
	const total, cut = 12, 5
	build := testWorkload(0.05)
	ref, err := NewHarness(build, nil)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := ref.Run(total, NewRandom(0.5, 3))
	if err != nil {
		t.Fatal(err)
	}
	cc := &captureCommitter{}
	src, err := NewHarnessWithConfig(build, nil, HarnessConfig{Committer: cc})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Run(cut, NewRandom(0.5, 3)); err != nil {
		t.Fatal(err)
	}
	good := cc.cps[cut-1]
	decisions := cut * len(good.Result.GatedSteps)

	for name, state := range map[string][]byte{
		"one draw too many": binary.AppendUvarint(nil, uint64(decisions)+1),
		"2^64-1 draws":      {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	} {
		t.Run(name, func(t *testing.T) {
			cp := *good
			cp.DeciderState = state
			h, err := NewHarness(build, nil)
			if err != nil {
				t.Fatal(err)
			}
			rnd := NewRandom(0.5, 3)
			done := make(chan error, 1)
			go func() {
				_, err := h.RestoreCheckpoint(&cp, rnd)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "draws") {
					t.Fatalf("restore = %v, want a refusal naming the draws", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("restore is still replaying draws after 5s")
			}
			got, err := h.Run(total, rnd)
			if err != nil {
				t.Fatal(err)
			}
			equalResults(t, got, clean)
		})
	}
	// Every draw the result has a decision for is a state the run can have left.
	cp := *good
	cp.DeciderState = binary.AppendUvarint(nil, uint64(decisions))
	h, err := NewHarness(build, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.RestoreCheckpoint(&cp, NewRandom(0.5, 3)); err != nil {
		t.Fatal(err)
	}
}

// TestRestorePersistedStateShapeMismatch rejects persisted state from a
// different workload.
func TestRestorePersistedStateShapeMismatch(t *testing.T) {
	a := buildInstance(t, testWorkload(0.05), InstanceConfig{})
	wide := buildInstance(t, wideWorkload(4, 0.05), InstanceConfig{})
	if err := a.checkPersisted(wide.PersistState()); err == nil {
		t.Fatal("checking mismatched persisted state: want error")
	}
}

// TestRestoreCheckpointRejectsMalformed hands RestoreCheckpoint checkpoints no
// run could have committed. Each must come back as an error — not a panic out
// of Result.Slice or a nil dereference — with neither instance touched, and
// the harness must afterwards run as one never restored into.
func TestRestoreCheckpointRejectsMalformed(t *testing.T) {
	build := testWorkload(0.05)
	reportSteps := []workflow.StepID{"mid", "leaf"}
	cc := &captureCommitter{}
	src, err := NewHarnessWithConfig(build, reportSteps, HarnessConfig{Committer: cc})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Run(3, Sync{}); err != nil {
		t.Fatal(err)
	}
	good := cc.cps[2]
	wide := buildInstance(t, wideWorkload(4, 0.05), InstanceConfig{}).PersistState()
	fresh, err := NewHarness(build, reportSteps)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := fresh.Run(2, Sync{})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		mutate func(cp *HarnessCheckpoint)
		want   string
	}{
		{"no result", func(cp *HarnessCheckpoint) { cp.Result = nil }, "no result"},
		{"waves beyond the rows", func(cp *HarnessCheckpoint) { cp.Result.Waves = 7 }, "7 waves"},
		{"negative waves", func(cp *HarnessCheckpoint) { cp.Result.Waves = -1 }, "-1 waves"},
		{"short matrix", func(cp *HarnessCheckpoint) { cp.Result.RefLabels = cp.Result.RefLabels[:2] }, "a series of 2"},
		{"long matrix", func(cp *HarnessCheckpoint) { cp.Result.LiveImpacts = append(cp.Result.LiveImpacts, nil) }, "a series of 4"},
		{"short report series", func(cp *HarnessCheckpoint) {
			rep := *cp.Result.Reports["leaf"]
			rep.Predicted = rep.Predicted[:1]
			cp.Result.Reports["leaf"] = &rep
		}, "a series of 1"},
		{"missing report step", func(cp *HarnessCheckpoint) { delete(cp.Result.Reports, "mid") }, `no report for step "mid"`},
		{"nil report", func(cp *HarnessCheckpoint) { cp.Result.Reports["mid"] = nil }, `no report for step "mid"`},
		{"measures of another harness", func(cp *HarnessCheckpoint) { cp.Measures = cp.Measures[:1] }, "measures 1 steps"},
		{"live of another workload", func(cp *HarnessCheckpoint) { cp.Live = wide }, "live: "},
		{"ref of another workload", func(cp *HarnessCheckpoint) { cp.Ref = wide }, "ref: "},
		{"stateless decider", func(cp *HarnessCheckpoint) { cp.HasDeciderState = true }, "stateless"},
		{"baseline with fewer values than keys", func(cp *HarnessCheckpoint) {
			cp.Live = withFirstBaseline(cp.Live, func(c metric.Columns) metric.Columns {
				c.Vals = c.Vals[:len(c.Vals)-1]
				return c
			})
		}, `live: engine: persisted baseline of step "mid": 8 keys, 7 values`},
		{"baseline keys out of order", func(cp *HarnessCheckpoint) {
			cp.Ref = withFirstBaseline(cp.Ref, func(c metric.Columns) metric.Columns {
				c.Keys = slices.Clone(c.Keys)
				c.Keys[0], c.Keys[1] = c.Keys[1], c.Keys[0]
				return c
			})
		}, `ref: engine: persisted baseline of step "mid": key`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cp, res := *good, *good.Result
			res.Reports = maps.Clone(res.Reports)
			cp.Result = &res
			tc.mutate(&cp)
			h, err := NewHarness(build, reportSteps)
			if err != nil {
				t.Fatal(err)
			}
			live, ref := h.live.PersistState(), h.ref.PersistState()
			if _, err := h.RestoreCheckpoint(&cp, Sync{}); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore = %v, want an error naming %q", err, tc.want)
			}
			if !reflect.DeepEqual(h.live.PersistState(), live) || !reflect.DeepEqual(h.ref.PersistState(), ref) || h.measures != nil {
				t.Fatal("a refused restore changed the harness")
			}
			got, err := h.Run(2, Sync{})
			if err != nil {
				t.Fatal(err)
			}
			equalResults(t, got, clean)
		})
	}
	// The checkpoint the rows were cut from restores.
	h, err := NewHarness(build, reportSteps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.RestoreCheckpoint(good, Sync{}); err != nil {
		t.Fatal(err)
	}
}

// withFirstBaseline returns p with the first impact tracker's baseline
// replaced by mutate's result, sharing nothing with p that it changes.
func withFirstBaseline(p InstancePersist, mutate func(metric.Columns) metric.Columns) InstancePersist {
	p.Steps = slices.Clone(p.Steps)
	for i, sp := range p.Steps {
		if len(sp.Impacts) > 0 {
			sp.Impacts = slices.Clone(sp.Impacts)
			sp.Impacts[0].Baseline = mutate(sp.Impacts[0].Baseline)
			p.Steps[i] = sp
			break
		}
	}
	return p
}
