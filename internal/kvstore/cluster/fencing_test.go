package cluster

// Fencing and circuit breaker tests. The scenarios here are the unit-level
// half of the partition chaos suite (partition_chaos_test at the repo
// root): epoch stamps reject stale-timeline writes, demoted primaries fence
// themselves and ack nothing after the fence, and breakers trip
// deterministically.

import (
	"errors"
	"fmt"
	"testing"

	"smartflux/internal/durable"
	"smartflux/internal/fault"
	"smartflux/internal/kvstore"
	"smartflux/internal/kvstore/kvnet"
	"smartflux/internal/obs"
)

// TestFencingStaleEpochRejectedAfterFailover is the split-brain story end to
// end: a primary dies behind a partition, its replica is promoted (epoch 2),
// the old primary heals still believing it owns the shard at epoch 1. A
// stale-timeline write to it must not be acked: the ship to its follower —
// the very node promoted over it — is rejected as fenced, the old primary
// self-demotes, and the write fails loudly. Reset clears the fence for a
// rejoin.
func TestFencingStaleEpochRejectedAfterFailover(t *testing.T) {
	inj := fault.New(fault.Policy{})
	tc := startCluster(t, 1, true, inj)
	c := tc.client(Config{ProbeRetries: 1})
	ref := kvstore.New()
	rt, _ := ref.EnsureTable("t", kvstore.TableOptions{MaxVersions: 3})
	if err := c.CreateTable("t", 3); err != nil {
		t.Fatal(err)
	}
	put := func(row string, val []byte) {
		t.Helper()
		if err := c.Put("t", row, "c", val); err != nil {
			t.Fatalf("Put %s: %v", row, err)
		}
		if err := rt.Put(row, "c", val); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		put(fmt.Sprintf("r%02d", i), []byte{byte(i)})
	}

	victim, promoted := tc.Primaries[0], tc.Followers[0]
	inj.Partition(victim.Addr())
	for i := 10; i < 20; i++ {
		put(fmt.Sprintf("r%02d", i), []byte{byte(i)})
	}
	if got := c.Map().Shards[0]; got.Primary != promoted.Addr() || got.Epoch != 2 {
		t.Fatalf("post-failover shard = %+v, want promoted primary at epoch 2", got)
	}
	if promoted.Epoch() != 2 {
		t.Fatalf("promoted node epoch = %d, want 2 (learned from the map push)", promoted.Epoch())
	}

	// The old primary heals, unfenced and still at epoch 1 — it never saw
	// the new map. A stale client writes to it directly.
	inj.Heal(victim.Addr())
	if victim.Fenced() {
		t.Fatal("victim fenced before any stale write; nothing should have told it")
	}
	cl, err := kvnet.Dial(victim.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	ghost := durable.EncodeMutationRecord(kvstore.Mutation{
		Table: "t", Row: "ghost", Column: "c", New: []byte("lost-timeline"),
		Timestamp: 999, Kind: kvstore.MutationPut,
	})
	if err := cl.ReplEpoch(1, [][]byte{ghost}); !errors.Is(err, kvnet.ErrFenced) {
		t.Fatalf("stale-timeline write = %v, want ErrFenced", err)
	}
	if !victim.Fenced() {
		t.Fatal("victim did not self-demote after its ship was fenced")
	}
	// Fenced means read-only: every later write is refused at the gate,
	// while reads still serve.
	if err := cl.Put("t", "ghost2", "c", []byte("x")); !errors.Is(err, kvnet.ErrFenced) {
		t.Fatalf("write to fenced node = %v, want ErrFenced", err)
	}
	if _, _, err := cl.Get("t", "r00", "c"); err != nil {
		t.Fatalf("read from fenced node: %v (fenced is read-only, not dead)", err)
	}

	// The promoted timeline never saw the ghost, and the cluster's merged
	// dump still equals the reference store of acked writes.
	if pd := string(promoted.Store().Dump()); pd != string(ref.Dump()) {
		t.Fatalf("promoted store drifted from acked reference:\n%s", pd)
	}
	if got, want := clusterDump(t, c, "t"), string(ref.Dump()); got != want {
		t.Fatalf("cluster dump differs from acked reference:\nwant:\n%sgot:\n%s", want, got)
	}

	// Reset clears data, epoch, fence and the cached map; the node rejoins
	// as the promoted primary's follower and must stay unfenced.
	victim.Reset()
	if victim.Fenced() || victim.Epoch() != 0 {
		t.Fatalf("Reset left fencing state: fenced=%v epoch=%d", victim.Fenced(), victim.Epoch())
	}
	if err := promoted.AttachFollower(victim.Addr()); err != nil {
		t.Fatalf("rejoin after reset: %v", err)
	}
	if err := c.Put("t", "r99", "c", []byte("post-rejoin")); err != nil {
		t.Fatal(err)
	}
	if vd, pd := string(victim.Store().Dump()), string(promoted.Store().Dump()); vd != pd {
		t.Fatalf("rejoined follower differs:\npromoted:\n%srejoined:\n%s", pd, vd)
	}
	if victim.Fenced() {
		t.Fatal("rejoined follower re-fenced itself")
	}
}

// TestClientFencedFailover: a cluster client holding a stale map writes to a
// healed demoted primary; the fencing rejection must route the client to the
// promoted replica — without a liveness probe, which the alive-but-demoted
// node would pass — and the retried write must be acked there. Zero acked
// writes lost, exactly one failover on the stale client.
func TestClientFencedFailover(t *testing.T) {
	inj := fault.New(fault.Policy{})
	tc := startCluster(t, 1, true, inj)
	fresh := tc.client(Config{ProbeRetries: 1})
	var staleFailovers []string
	stale := tc.client(Config{ProbeRetries: 1, OnFailover: func(shard int, from, to string) {
		staleFailovers = append(staleFailovers, fmt.Sprintf("%d:%s->%s", shard, from, to))
	}})
	if err := fresh.CreateTable("t", 3); err != nil {
		t.Fatal(err)
	}

	victim, promoted := tc.Primaries[0], tc.Followers[0]
	inj.Partition(victim.Addr())
	if err := fresh.Put("t", "r1", "c", []byte("promotes")); err != nil {
		t.Fatal(err)
	}
	if fresh.Map().Shards[0].Epoch != 2 {
		t.Fatal("fresh client did not promote to epoch 2")
	}
	inj.Heal(victim.Addr())

	// The stale client still routes to the healed old primary at epoch 1.
	// Its write is applied there but the ship is fenced, so the node demotes
	// and the client follows the rejection to the promoted replica.
	if err := stale.Put("t", "r2", "c", []byte("acked-once")); err != nil {
		t.Fatalf("stale client write across fenced failover: %v", err)
	}
	if len(staleFailovers) != 1 {
		t.Fatalf("stale client failovers = %v, want exactly one", staleFailovers)
	}
	if got := stale.Map().Shards[0]; got.Primary != promoted.Addr() || got.Epoch != 2 {
		t.Fatalf("stale client map = %+v, want promoted primary at epoch 2", got)
	}
	if !victim.Fenced() {
		t.Fatal("old primary did not fence on the stale ship")
	}
	// The acked write lives on the promoted timeline, not just the zombie.
	pt, err := promoted.Store().Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if v, found := pt.Get("r2", "c"); !found || string(v) != "acked-once" {
		t.Fatalf("acked write missing from promoted store: %q found=%v", v, found)
	}
	if v, found, err := stale.Get("t", "r2", "c"); err != nil || !found || string(v) != "acked-once" {
		t.Fatalf("Get through stale client = %q %v %v", v, found, err)
	}
}

// TestMapPushDemotesPriorPrimary: learning a map that moved past you is a
// demotion. A node listed as a shard's replica fences only when its own
// previous map listed it as that shard's primary — a fresh follower seeing
// its first map must not fence at startup.
func TestMapPushDemotesPriorPrimary(t *testing.T) {
	a, err := NewNode(NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	b, err := NewNode(NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })

	m := NewMap([]string{a.Addr()})
	if err := m.SetReplica(0, b.Addr()); err != nil {
		t.Fatal(err)
	}
	a.SetMap(m)
	b.SetMap(m)
	if a.Epoch() != 1 || a.Fenced() {
		t.Fatalf("primary after first map: epoch=%d fenced=%v, want 1/false", a.Epoch(), a.Fenced())
	}
	if b.Fenced() {
		t.Fatal("fresh replica fenced itself on its first map")
	}

	if err := m.Promote(0); err != nil {
		t.Fatal(err)
	}
	a.SetMap(m)
	b.SetMap(m)
	if !a.Fenced() || a.Epoch() != 2 {
		t.Fatalf("demoted prior primary: epoch=%d fenced=%v, want 2/true", a.Epoch(), a.Fenced())
	}
	if b.Fenced() || b.Epoch() != 2 {
		t.Fatalf("promoted node: epoch=%d fenced=%v, want 2/false", b.Epoch(), b.Fenced())
	}

	// The fence bites at the wire: writes refused, reads served.
	cl, err := kvnet.Dial(a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	if err := cl.CreateTable("t", 0); !errors.Is(err, kvnet.ErrFenced) {
		t.Fatalf("create on demoted node = %v, want ErrFenced", err)
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping on demoted node: %v", err)
	}
}

// TestEpochZeroReplIsStale: epoch 0 is an ordinary stamp, below every epoch
// a map hands out. A node that has adopted epoch 1 rejects an epoch-0
// replication frame as fenced and applies none of it, while a frame at its
// own epoch still applies.
func TestEpochZeroReplIsStale(t *testing.T) {
	n, err := NewNode(NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	n.SetMap(NewMap([]string{n.Addr()}))
	if n.Epoch() != 1 {
		t.Fatalf("node epoch = %d after its first map, want 1", n.Epoch())
	}

	cl, err := kvnet.Dial(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	create := durable.EncodeCreateRecord("t", 0)
	if err := cl.ReplEpoch(0, [][]byte{create}); !errors.Is(err, kvnet.ErrFenced) {
		t.Fatalf("epoch-0 repl on an epoch-1 node = %v, want ErrFenced", err)
	}
	if names := n.Store().TableNames(); len(names) != 0 {
		t.Fatalf("rejected frame applied: tables %v", names)
	}
	if err := cl.ReplEpoch(1, [][]byte{create}); err != nil {
		t.Fatalf("repl at the node's own epoch: %v", err)
	}
	if n.Fenced() {
		t.Fatal("a rejected stale frame fenced the node")
	}
}

// TestBreakerOpensFastFailsAndRecovers drives a shard breaker through its
// full cycle — closed, tripped open by consecutive transport failures,
// fast-failing without network, half-open trial after the op-counted
// cooldown, closed again after heal — and asserts the whole trajectory is
// deterministic: two same-seed runs produce identical counter values.
func TestBreakerOpensFastFailsAndRecovers(t *testing.T) {
	run := func(seed int64) (opens, fastFails uint64) {
		inj := fault.New(fault.Policy{})
		tc := startCluster(t, 1, false, inj) // unreplicated: failures stay failures
		o := obs.New(obs.NewRegistry())
		c := tc.client(Config{Obs: o, Seed: seed, ProbeRetries: 1})
		if err := c.CreateTable("t", 0); err != nil {
			t.Fatal(err)
		}
		if err := c.Put("t", "r", "c", []byte("pre")); err != nil {
			t.Fatal(err)
		}

		victim := tc.Primaries[0].Addr()
		inj.Partition(victim)
		gauge := o.Gauge(`smartflux_breaker_state{shard="0"}`)
		for i := 0; i < breakerThreshold; i++ { // threshold failures trip it
			if gauge.Value() != breakerClosed {
				t.Fatalf("breaker state = %v after %d failures, want closed below the threshold", gauge.Value(), i)
			}
			if err := c.Put("t", "r", "c", []byte("down")); err == nil {
				t.Fatal("write succeeded against a partitioned unreplicated shard")
			}
		}
		if gauge.Value() != breakerOpen {
			t.Fatalf("breaker state = %v after %d failures, want open", gauge.Value(), breakerThreshold)
		}
		// Open means fast-fail: a typed unavailability, no probing, no dial.
		preOps := inj.Stats().Ops
		if err := c.Put("t", "r", "c", []byte("fast")); !errors.Is(err, kvnet.ErrUnavailable) {
			t.Fatalf("fast-fail error = %v, want ErrUnavailable", err)
		}
		if got := inj.Stats().Ops; got != preOps {
			t.Fatalf("fast-fail touched the network: injector ops %d -> %d", preOps, got)
		}

		inj.Heal(victim)
		recovered := false
		for i := 0; i < 100; i++ { // burn the cooldown; the trial closes it
			if err := c.Put("t", "r", "c", []byte("back")); err == nil {
				recovered = true
				break
			}
		}
		if !recovered {
			t.Fatal("breaker never recovered after heal")
		}
		if gauge.Value() != breakerClosed {
			t.Fatalf("breaker state = %v after recovery, want closed", gauge.Value())
		}
		return o.Counter(`smartflux_breaker_opens_total{shard="0"}`).Value(),
			o.Counter(`smartflux_breaker_fastfail_total{shard="0"}`).Value()
	}
	o1, f1 := run(42)
	o2, f2 := run(42)
	if o1 != o2 || f1 != f2 {
		t.Fatalf("same-seed breaker runs diverged: opens %d/%d fastfails %d/%d", o1, o2, f1, f2)
	}
	if o1 == 0 || f1 == 0 {
		t.Fatalf("breaker never opened (%d) or never fast-failed (%d)", o1, f1)
	}
}

// TestScanMidScanPartitionFailsLoud: when a shard's primary dies mid-scan
// and there is no replica to resume on, the scan must fail with an error —
// never return a silently truncated merge.
func TestScanMidScanPartitionFailsLoud(t *testing.T) {
	inj := fault.New(fault.Policy{})
	tc := startCluster(t, 2, false, inj) // unreplicated: nothing to resume on
	c := tc.client(Config{ProbeRetries: 1})
	if err := c.CreateTable("t", 0); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < 1200; i++ {
		if err := c.Put("t", fmt.Sprintf("row-%04d", i), "c", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		total++
	}
	killed := false
	c.onShardScan = func(shard int) {
		if shard == 1 && !killed {
			killed = true
			inj.Partition(tc.Primaries[1].Addr())
		}
	}
	cells, err := c.Scan("t", kvstore.ScanOptions{})
	if !killed {
		t.Fatal("kill hook never fired")
	}
	if err == nil {
		t.Fatalf("mid-scan partition of an unreplicated shard returned %d/%d cells with no error (silent truncation)", len(cells), total)
	}
}
