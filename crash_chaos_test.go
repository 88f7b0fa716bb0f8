package smartflux_test

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"smartflux"
	"smartflux/internal/durable"
	"smartflux/internal/fault"
	"smartflux/internal/kvstore/kvnet"
)

// The crash-chaos suite is the headline durability assertion (DESIGN.md
// §6): a durable pipeline killed at a seeded crash point — mid-WAL, on a
// wave boundary, during a snapshot rotation, or through a torn final write —
// and then resumed, produces bit-identical store contents (values, versions,
// logical timestamps) and bit-identical ε/ι/decision series to a run that
// never crashed. Run via `make chaos-crash` (the TestCrashChaos prefix is
// the filter).

const (
	crashSensors    = 10
	crashTrainWaves = 60
	crashApplyWaves = 40
)

type crashRig struct {
	stores []*smartflux.Store
	// onWave is told every wave the source step starts, when set. Both
	// copies of a harness call it, possibly at the same time.
	onWave func(wave int)
}

// crashBuild is the quickstart pipeline (ingest → aggregate → alert) on a
// plain store; crash injection happens at the WAL layer via the durability
// hook, not inside processors.
func crashBuild(rig *crashRig) smartflux.BuildFunc {
	return func() (*smartflux.Workflow, *smartflux.Store, error) {
		store := smartflux.NewStore()
		rig.stores = append(rig.stores, store)
		wf := smartflux.NewWorkflow("crash-chaos")
		steps := []*smartflux.Step{
			{
				ID:      "ingest",
				Source:  true,
				Outputs: []smartflux.Container{{Table: "raw"}},
				Proc: smartflux.ProcessorFunc(func(ctx *smartflux.Context) error {
					if rig.onWave != nil {
						rig.onWave(ctx.Wave)
					}
					t, err := ctx.Table("raw")
					if err != nil {
						return err
					}
					for i := 0; i < crashSensors; i++ {
						v := 20 + 4*math.Sin(2*math.Pi*float64(ctx.Wave)/48)
						if ctx.Wave%70 > 55 {
							v += 8
						}
						v += 0.4 * math.Sin(1.7*float64(ctx.Wave)+0.9*float64(i))
						if err := t.PutFloat("s"+strconv.Itoa(i), "temp", v); err != nil {
							return err
						}
					}
					return nil
				}),
			},
			{
				ID:      "aggregate",
				Inputs:  []smartflux.Container{{Table: "raw"}},
				Outputs: []smartflux.Container{{Table: "avg"}},
				QoD:     smartflux.QoD{MaxError: 0.1, Mode: smartflux.ModeAccumulate},
				Proc: smartflux.ProcessorFunc(func(ctx *smartflux.Context) error {
					raw, err := ctx.Table("raw")
					if err != nil {
						return err
					}
					var sum float64
					var n int
					for _, c := range raw.Scan(smartflux.ScanOptions{}) {
						if v, ok := c.FloatValue(); ok {
							sum += v
							n++
						}
					}
					if n == 0 {
						return nil
					}
					out, err := ctx.Table("avg")
					if err != nil {
						return err
					}
					return out.PutFloat("region", "avg", sum/float64(n))
				}),
			},
			{
				ID:      "alert",
				Inputs:  []smartflux.Container{{Table: "avg"}},
				Outputs: []smartflux.Container{{Table: "alert"}},
				QoD:     smartflux.QoD{MaxError: 0.1, Mode: smartflux.ModeAccumulate},
				Proc: smartflux.ProcessorFunc(func(ctx *smartflux.Context) error {
					avg, err := ctx.Table("avg")
					if err != nil {
						return err
					}
					v, _ := avg.GetFloat("region", "avg")
					out, err := ctx.Table("alert")
					if err != nil {
						return err
					}
					return out.PutFloat("region", "level", 5+2*(v-15))
				}),
			},
		}
		for _, s := range steps {
			if err := wf.AddStep(s); err != nil {
				return nil, nil, err
			}
		}
		if err := wf.Finalize(); err != nil {
			return nil, nil, err
		}
		return wf, store, nil
	}
}

func crashPipelineConfig() smartflux.PipelineConfig {
	return smartflux.PipelineConfig{
		TrainWaves: crashTrainWaves,
		ApplyWaves: crashApplyWaves,
		Session: smartflux.SessionConfig{
			Seed:           7,
			Thresholds:     []float64{0.15},
			PositiveWeight: 12,
		},
	}
}

// crashOutcome is everything the bit-identical-recovery contract covers.
type crashOutcome struct {
	dumps     []string    // live + ref store contents, versions and timestamps
	measured  []float64   // ε series of the gated output step
	predicted []float64   // accounted ε series
	impacts   [][]float64 // ι series (application phase)
	decisions [][]bool    // live triggering decisions (application phase)
}

func crashOutcomeOf(t *testing.T, rig *crashRig, res *smartflux.PipelineResult) crashOutcome {
	t.Helper()
	if len(rig.stores) < 2 {
		t.Fatalf("rig captured %d stores, want the run's live + ref pair", len(rig.stores))
	}
	out := crashOutcome{}
	for _, s := range rig.stores[len(rig.stores)-2:] {
		out.dumps = append(out.dumps, string(s.Dump()))
	}
	report := res.Apply.Reports["alert"]
	if report == nil {
		t.Fatal("no report for step alert")
	}
	out.measured = report.Measured
	out.predicted = report.Predicted
	out.impacts = res.Apply.RefImpacts
	out.decisions = res.Apply.LiveExecuted
	return out
}

func equalCrashOutcome(t *testing.T, clean, got crashOutcome) {
	t.Helper()
	for i := range clean.dumps {
		if clean.dumps[i] != got.dumps[i] {
			t.Errorf("store %d diverged:\nclean:\n%s\nresumed:\n%s", i, clean.dumps[i], got.dumps[i])
		}
	}
	if !equalFloats(clean.measured, got.measured) {
		t.Errorf("measured ε diverged:\nclean:   %v\nresumed: %v", clean.measured, got.measured)
	}
	if !equalFloats(clean.predicted, got.predicted) {
		t.Errorf("predicted ε diverged:\nclean:   %v\nresumed: %v", clean.predicted, got.predicted)
	}
	if len(clean.impacts) != len(got.impacts) {
		t.Fatalf("ι history length diverged: %d vs %d", len(clean.impacts), len(got.impacts))
	}
	for w := range clean.impacts {
		if !equalFloats(clean.impacts[w], got.impacts[w]) {
			t.Errorf("ι diverged at wave %d: %v vs %v", w, clean.impacts[w], got.impacts[w])
		}
	}
	if len(clean.decisions) != len(got.decisions) {
		t.Fatalf("decision history length diverged: %d vs %d", len(clean.decisions), len(got.decisions))
	}
	for w := range clean.decisions {
		for i := range clean.decisions[w] {
			if clean.decisions[w][i] != got.decisions[w][i] {
				t.Errorf("decision diverged at wave %d step %d: %v vs %v",
					w, i, clean.decisions[w][i], got.decisions[w][i])
			}
		}
	}
}

// probeBoundary crashes a throwaway run at approximately approxN WAL appends
// and derives, from the records the recovery had to discard, the append
// index whose crash lands exactly on the preceding wave boundary: the WAL's
// final record is then that wave's commit and recovery discards nothing.
func probeBoundary(t *testing.T, cfg smartflux.PipelineConfig, approxN int) (boundaryN, wave int) {
	t.Helper()
	dir := t.TempDir()
	inj := fault.New(fault.Policy{CrashPoints: map[string]int{"wal_append": approxN}})
	_, _, err := smartflux.RunPipelineDurable(crashBuild(&crashRig{}), []smartflux.StepID{"alert"}, cfg,
		smartflux.DurableOptions{Dir: dir, Hook: inj.OpHook()})
	if !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("boundary probe at append %d never crashed: %v", approxN, err)
	}
	rec, err := durable.Recover(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil {
		t.Fatalf("boundary probe at append %d left no durable state", approxN)
	}
	return approxN - rec.Stats.Discarded, rec.Wave
}

// TestCrashChaosBitIdenticalRecovery kills the durable pipeline at 22 seeded
// crash points — mid-WAL appends across both phases, exact wave boundaries,
// snapshot rotations, torn final writes — and asserts every resumed run is
// bit-identical to the uncrashed baseline.
func TestCrashChaosBitIdenticalRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-chaos suite skipped in -short mode")
	}
	cfg := crashPipelineConfig()

	cleanRig := &crashRig{}
	cleanRes, err := smartflux.RunPipeline(crashBuild(cleanRig), []smartflux.StepID{"alert"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clean := crashOutcomeOf(t, cleanRig, cleanRes)

	// The durable layer itself must not perturb the run.
	durRig := &crashRig{}
	durRes, info, err := smartflux.RunPipelineDurable(crashBuild(durRig), []smartflux.StepID{"alert"}, cfg, smartflux.DurableOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	equalCrashOutcome(t, clean, crashOutcomeOf(t, durRig, durRes))
	if info.Durable.Commits != crashTrainWaves+crashApplyWaves {
		t.Fatalf("clean durable run committed %d waves, want %d", info.Durable.Commits, crashTrainWaves+crashApplyWaves)
	}

	type point struct {
		name      string
		appendN   int  // crash at the Nth WAL append (0 = none)
		boundary  bool // refine appendN to the preceding wave boundary first
		torn      int  // partial bytes of the crashing append
		snapshotN int  // crash at the Nth snapshot rotation (0 = none)
		snapEvery int  // snapshot cadence override for this point
	}
	points := []point{
		// Mid-WAL appends: training phase, the training/application switch,
		// deep into the application phase.
		{name: "midwal-10", appendN: 10},
		{name: "midwal-100", appendN: 100},
		{name: "midwal-333", appendN: 333},
		{name: "midwal-707", appendN: 707},
		{name: "midwal-1111", appendN: 1111},
		{name: "midwal-1313", appendN: 1313},
		{name: "midwal-1600", appendN: 1600},
		{name: "midwal-1800", appendN: 1800},
		{name: "midwal-2000", appendN: 2000},
		{name: "midwal-2300", appendN: 2300},
		// Exact wave boundaries (probed, then hit precisely): the WAL ends on
		// a commit record and recovery discards nothing.
		{name: "boundary-early", appendN: 40, boundary: true},
		{name: "boundary-mid-train", appendN: 520, boundary: true},
		{name: "boundary-late-train", appendN: 1020, boundary: true},
		{name: "boundary-train-end", appendN: 1500, boundary: true},
		{name: "boundary-apply", appendN: 1900, boundary: true},
		// Snapshot rotations (snapshot #1 is the Begin snapshot).
		{name: "snapshot-2nd", snapshotN: 2, snapEvery: 16},
		{name: "snapshot-3rd", snapshotN: 3, snapEvery: 16},
		{name: "snapshot-in-apply", snapshotN: 5, snapEvery: 16},
		{name: "snapshot-4th-dense", snapshotN: 4, snapEvery: 8},
		// Torn final records: the crashing append leaves partial bytes that
		// recovery must truncate.
		{name: "torn-1b", appendN: 600, torn: 1},
		{name: "torn-3b", appendN: 200, torn: 3},
		{name: "torn-9b-apply", appendN: 1750, torn: 9},
	}
	if len(points) < 20 {
		t.Fatalf("crash matrix has %d points, the contract demands at least 20", len(points))
	}

	for _, p := range points {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			wantWave := -1
			if p.boundary {
				p.appendN, wantWave = probeBoundary(t, cfg, p.appendN)
			}
			dir := t.TempDir()
			policy := fault.Policy{CrashPoints: map[string]int{}, CrashTornBytes: p.torn}
			if p.appendN > 0 {
				policy.CrashPoints["wal_append"] = p.appendN
			}
			if p.snapshotN > 0 {
				policy.CrashPoints["snapshot"] = p.snapshotN
			}
			inj := fault.New(policy)
			opts := smartflux.DurableOptions{Dir: dir, Hook: inj.OpHook(), SnapshotEvery: p.snapEvery}
			crashRigA := &crashRig{}
			_, _, err := smartflux.RunPipelineDurable(crashBuild(crashRigA), []smartflux.StepID{"alert"}, cfg, opts)
			if !errors.Is(err, fault.ErrCrashed) {
				t.Fatalf("crash point %s never fired: %v", p.name, err)
			}

			resumeRig := &crashRig{}
			res, info, err := smartflux.ResumePipeline(crashBuild(resumeRig), []smartflux.StepID{"alert"}, cfg,
				smartflux.DurableOptions{Dir: dir, SnapshotEvery: p.snapEvery})
			if err != nil {
				t.Fatalf("resume after %s: %v", p.name, err)
			}
			if !info.Resumed {
				t.Error("resume did not report recovered state")
			}
			if wantWave >= 0 {
				if info.Recovery.Wave != wantWave {
					t.Errorf("recovered wave %d, want exactly %d", info.Recovery.Wave, wantWave)
				}
				if info.Recovery.Discarded != 0 {
					t.Errorf("boundary crash discarded %d records, want 0", info.Recovery.Discarded)
				}
			}
			if p.torn > 0 && !info.Recovery.Torn {
				t.Error("torn-write crash did not leave a torn WAL tail")
			}
			equalCrashOutcome(t, clean, crashOutcomeOf(t, resumeRig, res))
			t.Logf("crashed at wave %d (%d records replayed, %d discarded, %d bytes truncated); resume bit-identical",
				info.Recovery.Wave, info.Recovery.Replayed, info.Recovery.Discarded, info.Recovery.TruncatedBytes)
		})
	}
}

// TestCrashChaosDoubleCrash crashes the run, crashes the resumed run, and
// resumes again: durability must compose across repeated failures.
func TestCrashChaosDoubleCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-chaos suite skipped in -short mode")
	}
	cfg := crashPipelineConfig()
	cleanRig := &crashRig{}
	cleanRes, err := smartflux.RunPipeline(crashBuild(cleanRig), []smartflux.StepID{"alert"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clean := crashOutcomeOf(t, cleanRig, cleanRes)

	dir := t.TempDir()
	inj := fault.New(fault.Policy{CrashPoints: map[string]int{"wal_append": 400}})
	_, _, err = smartflux.RunPipelineDurable(crashBuild(&crashRig{}), []smartflux.StepID{"alert"}, cfg,
		smartflux.DurableOptions{Dir: dir, Hook: inj.OpHook()})
	if !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("first crash: %v", err)
	}
	inj2 := fault.New(fault.Policy{CrashPoints: map[string]int{"wal_append": 900}, CrashTornBytes: 4})
	_, _, err = smartflux.ResumePipeline(crashBuild(&crashRig{}), []smartflux.StepID{"alert"}, cfg,
		smartflux.DurableOptions{Dir: dir, Hook: inj2.OpHook()})
	if !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("second crash: %v", err)
	}
	rig := &crashRig{}
	res, info, err := smartflux.ResumePipeline(crashBuild(rig), []smartflux.StepID{"alert"}, cfg,
		smartflux.DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Resumed {
		t.Error("final resume did not report recovered state")
	}
	equalCrashOutcome(t, clean, crashOutcomeOf(t, rig, res))
}

// TestCrashChaosEveryPolicy gives the policies that do not learn the rows the
// session has above: seq3, random — whose verdicts are a hash of (seed, wave,
// step), so the resumed run must draw what the lost one would have — and
// oracle each run the durable pipeline killed mid-training, in the first
// application wave (every warm-up wave committed, no decision taken yet) and
// mid-application, and every resumed run equals the uncrashed one in every
// series of both result views, both store dumps and the bytes of the last
// committed payload.
func TestCrashChaosEveryPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-chaos suite skipped in -short mode")
	}
	steps := []smartflux.StepID{"alert"}
	encoded := func(res *smartflux.Result) string {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(res); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	lastPayload := func(dir string) []byte {
		rec, err := durable.Recover(dir, nil)
		if err != nil || rec == nil || rec.Wave != crashTrainWaves+crashApplyWaves {
			t.Fatalf("recover %s: %+v, %v", dir, rec, err)
		}
		return rec.Payload
	}
	for name, policy := range map[string]func() smartflux.Decider{
		"seq3":   func() smartflux.Decider { return smartflux.SeqPolicy(3) },
		"random": func() smartflux.Decider { return smartflux.RandomPolicy(0.5, 5) },
		"oracle": smartflux.OraclePolicy,
	} {
		under := func() smartflux.PipelineConfig {
			cfg := crashPipelineConfig()
			cfg.Policy, cfg.Parallelism = policy(), 1
			return cfg
		}
		cleanRig, cleanDir := &crashRig{}, t.TempDir()
		cleanRes, _, err := smartflux.RunPipelineDurable(crashBuild(cleanRig), steps, under(), smartflux.DurableOptions{Dir: cleanDir})
		if err != nil {
			t.Fatal(err)
		}
		if got := cleanRes.Apply.Policy; got != name {
			t.Fatalf("application phase ran under %q, want %s", got, name)
		}
		clean, cleanPayload := crashOutcomeOf(t, cleanRig, cleanRes), lastPayload(cleanDir)

		for _, k := range []int{20, crashTrainWaves, crashTrainWaves + 20} {
			t.Run(fmt.Sprintf("%s-wave-%d", name, k), func(t *testing.T) {
				t.Parallel()
				// Kill the log at the first append of wave k: k waves are committed.
				// Both copies' sources report their wave: the hook must be
				// safe for concurrent use.
				dir, crashed := t.TempDir(), false
				var wave atomic.Int64
				wave.Store(-1)
				rig := &crashRig{onWave: func(w int) { wave.Store(int64(w)) }}
				hook := func(op string) error {
					if crashed = crashed || op == "wal_append" && wave.Load() == int64(k); crashed {
						return fault.ErrCrashed
					}
					return nil
				}
				_, _, err := smartflux.RunPipelineDurable(crashBuild(rig), steps, under(), smartflux.DurableOptions{Dir: dir, Hook: hook})
				if !errors.Is(err, fault.ErrCrashed) {
					t.Fatalf("crash in wave %d never fired: %v", k, err)
				}
				resumeRig := &crashRig{}
				res, info, err := smartflux.ResumePipeline(crashBuild(resumeRig), steps, under(), smartflux.DurableOptions{Dir: dir})
				if err != nil {
					t.Fatalf("resume: %v", err)
				}
				if !info.Resumed || info.Recovery.Wave != k {
					t.Errorf("resumed=%v from wave %d, want wave %d", info.Resumed, info.Recovery.Wave, k)
				}
				equalCrashOutcome(t, clean, crashOutcomeOf(t, resumeRig, res))
				if encoded(res.Train) != encoded(cleanRes.Train) || encoded(res.Apply) != encoded(cleanRes.Apply) {
					t.Error("a result series diverged from the uncrashed run")
				}
				if !bytes.Equal(lastPayload(dir), cleanPayload) {
					t.Error("the resumed run's last committed payload differs from the uncrashed run's")
				}
			})
		}
	}
}

// TestCrashChaosKvnetDedupReplay drives a durability-managed store through a
// kvnet client over a disconnect-prone transport: the server's ClientID+Seq
// dedup must keep retried mutations out of the WAL (each applied once), and
// recovery replay must be idempotent — applying it into a fresh store, into
// that store again, and over the live server store that already holds every
// write all converge to bit-identical contents.
func TestCrashChaosKvnetDedupReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-chaos suite skipped in -short mode")
	}
	dir := t.TempDir()
	serverStore := smartflux.NewStore()
	mgr, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Register("srv", serverStore); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Begin(0, []byte("kv-0")); err != nil {
		t.Fatal(err)
	}

	server := kvnet.NewServer(serverStore)
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = server.Close() }()
	inj := fault.New(fault.Policy{Seed: 17, DisconnectRate: 0.15})
	client, err := kvnet.DialConfig(addr, kvnet.ClientConfig{
		DialTimeout:  2 * time.Second,
		ReadTimeout:  2 * time.Second,
		WriteTimeout: 2 * time.Second,
		MaxRetries:   12,
		RetryBackoff: time.Millisecond,
		RetrySeed:    3,
		Dial:         fault.Dialer(inj),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()

	if err := client.CreateTable("chaos", 0); err != nil {
		t.Fatal(err)
	}
	for wave := 1; wave <= 3; wave++ {
		for i := 0; i < 20; i++ {
			if err := client.Put("chaos", "s"+strconv.Itoa(i), "v", smartflux.EncodeFloat(float64(wave*100+i))); err != nil {
				t.Fatalf("wave %d put %d: %v", wave, i, err)
			}
		}
		for i := 0; i < 3; i++ {
			if err := client.Delete("chaos", "s"+strconv.Itoa(i), "v"); err != nil {
				t.Fatalf("wave %d delete %d: %v", wave, i, err)
			}
		}
		if err := mgr.Commit(wave, []byte(fmt.Sprintf("kv-%d", wave))); err != nil {
			t.Fatalf("commit wave %d: %v", wave, err)
		}
	}
	if inj.Stats().Disconnects == 0 {
		t.Fatal("no disconnects injected; the dedup path was never exercised")
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	want := string(serverStore.Dump())
	rec, err := durable.Recover(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.Wave != 3 {
		t.Fatalf("recovery = %+v, want wave 3", rec)
	}
	fresh := smartflux.NewStore()
	if err := rec.Apply("srv", fresh); err != nil {
		t.Fatal(err)
	}
	if got := string(fresh.Dump()); got != want {
		t.Errorf("recovered store diverged from the deduped server store:\nserver:\n%s\nrecovered:\n%s", want, got)
	}
	// Idempotence: replaying again — into the rebuilt store and over the live
	// server store itself — must change nothing.
	if err := rec.Apply("srv", fresh); err != nil {
		t.Fatal(err)
	}
	if got := string(fresh.Dump()); got != want {
		t.Errorf("double replay diverged:\n%s\nvs\n%s", got, want)
	}
	if err := rec.Apply("srv", serverStore); err != nil {
		t.Fatal(err)
	}
	if got := string(serverStore.Dump()); got != want {
		t.Errorf("replay over the live server store diverged:\n%s\nvs\n%s", got, want)
	}
}
