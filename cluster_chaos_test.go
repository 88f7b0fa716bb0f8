package smartflux_test

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"smartflux"
	"smartflux/internal/fault"
	"smartflux/internal/kvstore/cluster"
	"smartflux/internal/kvstore/kvnet"
)

// The cluster chaos suite drives an N-shard replicated kvstore cluster
// through a seeded shard kill and asserts the cluster determinism contract
// (DESIGN.md §8): the cluster's merged dump — version histories and logical
// timestamps included — is bit-identical to a single-store run of the same
// workload, even with a primary killed mid-run by a count-based trigger, its
// replica promoted, and the dead node rejoined through the catch-up
// protocol. Run via `make chaos-cluster` (the TestClusterChaos prefix is the
// filter; deliberately NOT matched by `make chaos`'s TestChaos pattern).

const (
	clusterChaosShards    = 3
	clusterChaosSensors   = 12
	clusterChaosWaves     = 40 // waves before the dead node rejoins
	clusterChaosPostWaves = 20 // waves after the rejoin
	// clusterChaosKillAfter is the transport-op count at which the seeded
	// injector partitions the victim primary — mid-run, while writes are in
	// flight. Deterministic: the single-threaded workload issues transport
	// ops in a fixed sequence.
	clusterChaosKillAfter = 300
)

// chaosOps is the op surface the workload drives, implemented by both the
// cluster client and a plain store, so reference and cluster runs share one
// literal op sequence.
type chaosOps interface {
	CreateTable(name string, maxVersions int) error
	PutFloat(table, row, column string, v float64) error
	Delete(table, row, column string) error
}

// localOps adapts a single store to chaosOps.
type localOps struct{ s *smartflux.Store }

func (l localOps) CreateTable(name string, maxVersions int) error {
	_, err := l.s.EnsureTable(name, smartflux.TableOptions{MaxVersions: maxVersions})
	return err
}

func (l localOps) PutFloat(table, row, column string, v float64) error {
	t, err := l.s.Table(table)
	if err != nil {
		return err
	}
	return t.PutFloat(row, column, v)
}

func (l localOps) Delete(table, row, column string) error {
	t, err := l.s.Table(table)
	if err != nil {
		return err
	}
	return t.Delete(row, column)
}

// clusterChaosWave issues one wave of the workload: a spread of sensor
// readings (multi-versioned), a rolling delete — including, periodically, of
// a cell that does not exist, which must burn a clock tick in both worlds —
// and a running aggregate.
func clusterChaosWave(ops chaosOps, wave int) error {
	if wave == 0 {
		if err := ops.CreateTable("readings", 2); err != nil {
			return err
		}
		if err := ops.CreateTable("agg", 0); err != nil {
			return err
		}
	}
	for i := 0; i < clusterChaosSensors; i++ {
		v := 20 + float64(wave)/4 + float64(i)/2
		if err := ops.PutFloat("readings", "sensor"+fmt.Sprint(i), "temp", v); err != nil {
			return err
		}
	}
	if err := ops.Delete("readings", "sensor"+fmt.Sprint(wave%(2*clusterChaosSensors)), "temp"); err != nil {
		return err
	}
	return ops.PutFloat("agg", "region", "mean", 20+float64(wave)/4)
}

// clusterDump is the cluster's merged version dump of the tables, in
// Store.Dump's format.
func clusterDump(t *testing.T, c *cluster.Client, tables ...string) string {
	t.Helper()
	d, err := c.Dump(tables...)
	if err != nil {
		t.Fatal(err)
	}
	return string(d)
}

// startKillCluster starts the suite's replicated cluster with every primary
// behind an injector that partitions one of them — seed picks which — at its
// killAfter-th transport op. The kill policy needs the victim addresses up
// front, so the primaries' ports are bound before the injector exists and
// the listeners are fault-wrapped afterwards.
func startKillCluster(t *testing.T, seed int64, killAfter int) (*cluster.Local, *fault.Injector) {
	t.Helper()
	lns := make([]net.Listener, clusterChaosShards)
	addrs := make([]string, clusterChaosShards)
	for s := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[s] = ln
		addrs[s] = ln.Addr().String()
	}
	inj := fault.New(fault.Policy{Seed: seed, KillShardAddrs: addrs, KillShardAfter: killAfter})
	local, err := cluster.StartLocal(clusterChaosShards, true, func(shard int, replica bool) (cluster.NodeConfig, error) {
		if replica {
			return cluster.NodeConfig{}, nil
		}
		return cluster.NodeConfig{Listener: fault.WrapListener(lns[shard], inj)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(local.Close)
	return local, inj
}

// chaosClient opens a chaos suite's client over local's map: it dials through
// the injector, probes a suspect once, quickly and with seeded jitter, and
// records every failover as "shard:from->to".
func chaosClient(t *testing.T, local *cluster.Local, inj *fault.Injector, seed int64, o *smartflux.RunObserver) (*cluster.Client, *[]string) {
	t.Helper()
	failovers := &[]string{}
	cc, err := cluster.New(cluster.Config{
		Map:          local.Map,
		Client:       kvnet.ClientConfig{Dial: fault.Dialer(inj)},
		Seed:         seed,
		ProbeRetries: 1,
		ProbeBackoff: time.Millisecond,
		OnFailover: func(shard int, from, to string) {
			*failovers = append(*failovers, fmt.Sprintf("%d:%s->%s", shard, from, to))
		},
		Obs: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cc.Close() })
	return cc, failovers
}

// TestClusterChaosFailoverDeterminism is the headline cluster chaos run:
// seeded count-based shard kill mid-run, reactive failover to the replica,
// rejoin of the dead node through Reset + cursor catch-up, and a final
// bit-identical dump comparison against the single-store reference.
func TestClusterChaosFailoverDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}

	// Reference: the whole workload against one plain store.
	control := smartflux.NewStore()
	for w := 0; w < clusterChaosWaves+clusterChaosPostWaves; w++ {
		if err := clusterChaosWave(localOps{control}, w); err != nil {
			t.Fatal(err)
		}
	}

	local, inj := startKillCluster(t, 7, clusterChaosKillAfter)
	primaries, followers := local.Primaries, local.Followers
	victim := int(uint64(7) % uint64(clusterChaosShards)) // the policy's choice, spelled out

	// Failover spans and counters flow into the suite observer (and the
	// cluster-spans.jsonl artifact when SMARTFLUX_CHAOS_SPAN_OUT is set).
	reg := smartflux.NewMetricsRegistry()
	observer := chaosObserver(t, reg)
	cc, failovers := chaosClient(t, local, inj, 7, observer)

	// Phase 1: waves across the seeded kill. The injector partitions the
	// victim primary at the KillShardAfter-th transport op; the next op
	// routed to it probes, promotes the follower and retries.
	for w := 0; w < clusterChaosWaves; w++ {
		if err := clusterChaosWave(clusterOps{cc}, w); err != nil {
			t.Fatalf("wave %d: %v", w, err)
		}
	}
	st := inj.Stats()
	if st.Partitions != 1 {
		t.Fatalf("seeded kill did not fire exactly once: %+v", st)
	}
	if len(*failovers) != 1 || !strings.HasPrefix((*failovers)[0], fmt.Sprint(victim)) {
		t.Fatalf("failovers = %v, want exactly one on shard %d", *failovers, victim)
	}
	if got := cc.Map().Shards[victim].Primary; got != followers[victim].Addr() {
		t.Fatalf("shard %d primary = %s, want promoted follower %s", victim, got, followers[victim].Addr())
	}

	// Phase 2: the dead node heals and rejoins as a follower of the promoted
	// node — Reset (it died holding an un-shipped cursor position and a stale
	// follower link) then cursor catch-up from zero.
	inj.Heal(primaries[victim].Addr())
	rejoined := primaries[victim]
	rejoined.Reset()
	if err := followers[victim].AttachFollower(rejoined.Addr()); err != nil {
		t.Fatalf("rejoin catch-up: %v", err)
	}

	// Phase 3: more waves on the new topology; the rejoined follower tracks
	// them live.
	for w := clusterChaosWaves; w < clusterChaosWaves+clusterChaosPostWaves; w++ {
		if err := clusterChaosWave(clusterOps{cc}, w); err != nil {
			t.Fatalf("wave %d: %v", w, err)
		}
	}

	// The contract: merged cluster dump bit-identical to the single store.
	want := string(control.Dump())
	got := clusterDump(t, cc, control.TableNames()...)
	if got != want {
		t.Errorf("cluster dump diverged from single store after kill/failover/rejoin:\ncluster:\n%s\ncontrol:\n%s", got, want)
	}

	// The rejoined follower converged on the promoted node's exact log.
	pc, pcrc := followers[victim].Log().Status()
	rc, rcrc := rejoined.Log().Status()
	if pc != rc || pcrc != rcrc {
		t.Errorf("rejoined log head (%d,%x) != promoted (%d,%x)", rc, rcrc, pc, pcrc)
	}

	// Observability: the failover span/counter surfaced.
	snap := reg.Snapshot()
	if n := snap.Counters["smartflux_cluster_failovers_total"]; n != 1 {
		t.Errorf("failover counter = %d, want 1", n)
	}
	t.Logf("killed shard %d at op %d, 1 failover, rejoined and converged at cursor %d over %d transport ops",
		victim, clusterChaosKillAfter, rc, inj.Stats().Ops)
}

// clusterOps adapts the cluster client to chaosOps.
type clusterOps struct{ c *cluster.Client }

func (o clusterOps) CreateTable(name string, maxVersions int) error {
	return o.c.CreateTable(name, maxVersions)
}

func (o clusterOps) PutFloat(table, row, column string, v float64) error {
	return o.c.PutFloat(table, row, column, v)
}

func (o clusterOps) Delete(table, row, column string) error {
	return o.c.Delete(table, row, column)
}

// TestClusterChaosScanAfterSeededKill kills a shard (different seed, so a
// different victim than the failover test) partway through a 900-row write
// load, lets the writes ride the failover, then runs a scatter-gather scan
// against the failed-over topology and checks it cell-for-cell against the
// reference — no duplicates, no gaps, same timestamps. (Failover between
// pages of an in-flight scan is covered by the cluster package's
// mid-scan-failover test, which can steer the kill with a page hook.)
func TestClusterChaosScanAfterSeededKill(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	control := smartflux.NewStore()
	// Each logical op costs several transport ops (client write/read plus the
	// server's), so op 2000 lands deep inside the 900-row write load.
	const rows = 900
	local, inj := startKillCluster(t, 3, 2000)
	cc, _ := chaosClient(t, local, inj, 3, nil)

	if err := cc.CreateTable("wide", 1); err != nil {
		t.Fatal(err)
	}
	ct, err := control.EnsureTable("wide", smartflux.TableOptions{MaxVersions: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		row := fmt.Sprintf("row-%04d", i)
		v := float64(i) / 8
		if err := cc.PutFloat("wide", row, "v", v); err != nil {
			t.Fatal(err)
		}
		if err := ct.PutFloat(row, "v", v); err != nil {
			t.Fatal(err)
		}
	}

	if st := inj.Stats(); st.Partitions != 1 {
		t.Fatalf("kill did not fire during the write load: %+v", st)
	}
	cells, err := cc.Scan("wide", smartflux.ScanOptions{})
	if err != nil {
		t.Fatalf("scan after kill: %v", err)
	}
	want := ct.Scan(smartflux.ScanOptions{})
	if len(cells) != len(want) {
		t.Fatalf("scan returned %d cells, want %d (duplicates or gaps)", len(cells), len(want))
	}
	for i := range cells {
		if cells[i].Row != want[i].Row || cells[i].Column != want[i].Column ||
			cells[i].Version.Timestamp != want[i].Version.Timestamp {
			t.Fatalf("cell %d: got (%s,%s,@%d) want (%s,%s,@%d)",
				i, cells[i].Row, cells[i].Column, cells[i].Version.Timestamp,
				want[i].Row, want[i].Column, want[i].Version.Timestamp)
		}
	}
}

// TestClusterChaosResumeAfterCrash crashes a durable pipeline whose live
// store is mirrored into a replicated cluster, two waves from the end — late
// enough that the resumed waves cannot rewrite every retained version — and
// resumes it into a fresh cluster. Recovery replays the store without
// notifying observers, so the mirror must attach after it and sync what was
// restored: the fresh cluster's merged dump ends bit-identical to the resumed
// live store and to the run that never crashed.
func TestClusterChaosResumeAfterCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	steps := []smartflux.StepID{"alert"}
	observer := chaosObserver(t, smartflux.NewMetricsRegistry())
	freshCluster := func() *cluster.Client {
		local, err := cluster.StartLocal(clusterChaosShards, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(local.Close)
		cc, err := cluster.New(cluster.Config{Map: local.Map, Obs: observer})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cc.Close() })
		return cc
	}
	mirrored := func(cc *cluster.Client, res *smartflux.PipelineResult) string {
		want := string(res.Store.Dump())
		if got := clusterDump(t, cc, res.Store.TableNames()...); got != want {
			t.Fatalf("cluster dump diverged from the live store:\ncluster:\n%s\nlive:\n%s", got, want)
		}
		return want
	}

	cfg := crashPipelineConfig()
	cfg.Cluster = freshCluster()
	clean, info, err := smartflux.RunPipelineDurable(crashBuild(&crashRig{}), steps, cfg, smartflux.DurableOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	want := mirrored(cfg.Cluster, clean)

	// A wave appends between 13 and 25 records (the readings and gated
	// outputs of both harness instances, the commit): 20 appends from the
	// end is inside the last two waves.
	dir := t.TempDir()
	inj := fault.New(fault.Policy{CrashPoints: map[string]int{"wal_append": info.Durable.Appends - 20}})
	cfg.Cluster = freshCluster()
	_, _, err = smartflux.RunPipelineDurable(crashBuild(&crashRig{}), steps, cfg, smartflux.DurableOptions{Dir: dir, Hook: inj.OpHook()})
	if !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("crash run: %v, want the injected crash", err)
	}

	cfg.Cluster = freshCluster()
	res, rinfo, err := smartflux.ResumePipeline(crashBuild(&crashRig{}), steps, cfg, smartflux.DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	total := crashTrainWaves + crashApplyWaves
	if !rinfo.Resumed || rinfo.Recovery.Wave < total-3 || rinfo.Recovery.Wave >= total {
		t.Fatalf("resumed=%v from wave %d, want a crash in the last waves of %d", rinfo.Resumed, rinfo.Recovery.Wave, total)
	}
	if got := mirrored(cfg.Cluster, res); got != want {
		t.Fatalf("resumed run's dump diverged from the uncrashed run's:\nresumed:\n%s\nuncrashed:\n%s", got, want)
	}
}
