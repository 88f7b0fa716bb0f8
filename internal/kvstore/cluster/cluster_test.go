package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smartflux/internal/fault"
	"smartflux/internal/kvstore"
	"smartflux/internal/kvstore/kvnet"
)

// --- harness ---------------------------------------------------------------

// testCluster is N primaries, optionally N followers, and the partition map
// over them. All nodes run in-process; the injector (when non-nil) wraps
// every primary's listener and the client dial path, so fault.Partition of a
// primary address looks like a dead shard from everywhere.
type testCluster struct {
	*Local
	t   *testing.T
	inj *fault.Injector
}

func startCluster(t *testing.T, shards int, replicated bool, inj *fault.Injector) *testCluster {
	t.Helper()
	local, err := StartLocal(shards, replicated, func(_ int, replica bool) (NodeConfig, error) {
		if inj == nil || replica {
			return NodeConfig{}, nil
		}
		return NodeConfig{Listener: fault.WrapListener(rawListener(t), inj)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(local.Close)
	return &testCluster{Local: local, t: t, inj: inj}
}

func rawListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// client builds a cluster client over the cluster's map, dialing through the
// injector when one is installed.
func (tc *testCluster) client(cfg Config) *Client {
	tc.t.Helper()
	cfg.Map = tc.Map
	if tc.inj != nil && cfg.Client.Dial == nil {
		cfg.Client.Dial = fault.Dialer(tc.inj)
	}
	if cfg.ProbeBackoff == 0 {
		cfg.ProbeBackoff = time.Millisecond
	}
	c, err := New(cfg)
	if err != nil {
		tc.t.Fatal(err)
	}
	tc.t.Cleanup(func() { _ = c.Close() })
	return c
}

// clusterDump is the cluster's merged dump of the tables.
func clusterDump(t *testing.T, c *Client, tables ...string) string {
	t.Helper()
	d, err := c.Dump(tables...)
	if err != nil {
		t.Fatal(err)
	}
	return string(d)
}

// workload drives an identical op sequence against the cluster client and a
// reference single store: puts that give forty alpha cells one version
// each, overwrites that push five cells past alpha's MaxVersions 2, a
// delete of a multi-version cell that is then put again, keys that break a
// careless dump or merge, deletes (including of a missing cell — it must
// burn a clock tick in both worlds), and a batch. It fails if no alpha cell
// ends with two versions, so a dump comparison always compares histories.
func workload(t *testing.T, c *Client, ref *kvstore.Store) {
	t.Helper()
	if err := c.CreateTable("alpha", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.EnsureTable("alpha", kvstore.TableOptions{MaxVersions: 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("beta", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.EnsureTable("beta", kvstore.TableOptions{}); err != nil {
		t.Fatal(err)
	}
	refA, _ := ref.Table("alpha")
	refB, _ := ref.Table("beta")
	put := func(row, col string, val []byte) {
		t.Helper()
		if err := c.Put("alpha", row, col, val); err != nil {
			t.Fatal(err)
		}
		if err := refA.Put(row, col, val); err != nil {
			t.Fatal(err)
		}
	}
	del := func(row, col string) {
		t.Helper()
		if err := c.Delete("alpha", row, col); err != nil {
			t.Fatal(err)
		}
		if err := refA.Delete(row, col); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < 40; i++ {
		put(fmt.Sprintf("row-%02d", i%20), fmt.Sprintf("c%d", i%3), []byte(fmt.Sprintf("v%d", i)))
	}
	// Three more versions of row-10..row-14's c1, so each window drops its
	// oldest; then row-12/c1 is deleted and put again, one version.
	for k := 0; k < 3; k++ {
		for r := 10; r < 15; r++ {
			put(fmt.Sprintf("row-%02d", r), "c1", []byte(fmt.Sprintf("w%d-%d", r, k)))
		}
	}
	del("row-12", "c1")
	put("row-12", "c1", []byte("again"))
	// Keys that break a careless dump or merge: a row that prefixes another
	// ("a" sorts before "a-b" as a row, after it as a joined "row/column"
	// string) and two cells whose row/column concatenations collide.
	for _, k := range [][2]string{{"a-b", "x"}, {"a", "x"}, {"a/b", "c"}, {"a", "b/c"}} {
		put(k[0], k[1], []byte(k[0]))
	}
	// Deletes: one real, one of a missing cell (tick parity).
	del("row-03", "c0")
	del("never", "c9")
	// A batch spanning many rows (hence shards).
	b := kvstore.NewBatch()
	var ops []kvstore.Op
	for i := 0; i < 10; i++ {
		op := kvstore.Op{Row: fmt.Sprintf("m-%02d", i), Column: "value", Value: kvstore.EncodeFloat(float64(i) * 1.5)}
		ops = append(ops, op)
		b.Put(op.Row, op.Column, op.Value)
	}
	b.Delete("m-04", "value")
	if err := c.Apply("beta", append(ops, kvstore.Op{Row: "m-04", Column: "value", Delete: true})); err != nil {
		t.Fatal(err)
	}
	if err := refB.Apply(b); err != nil {
		t.Fatal(err)
	}
	cells := refA.ScanVersions(kvstore.ScanOptions{})
	multi := false
	for i := 1; i < len(cells); i++ {
		multi = multi || cells[i].Row == cells[i-1].Row && cells[i].Column == cells[i-1].Column
	}
	if !multi {
		t.Fatal("no alpha cell holds two versions: the workload drives no version history")
	}
}

// --- ring / map ------------------------------------------------------------

func TestRingDeterministicAndCovering(t *testing.T) {
	r1, r2 := newRing(3, 0), newRing(3, 0)
	counts := make([]int, 3)
	for i := 0; i < 1000; i++ {
		row := fmt.Sprintf("row-%04d", i)
		s := r1.shardFor(row)
		if s != r2.shardFor(row) {
			t.Fatalf("row %q routed differently by identical rings", row)
		}
		if s < 0 || s >= 3 {
			t.Fatalf("row %q routed to shard %d", row, s)
		}
		counts[s]++
	}
	for s, n := range counts {
		if n == 0 {
			t.Fatalf("shard %d owns no rows of 1000 (distribution: %v)", s, counts)
		}
	}
	// Single shard: everything routes to 0.
	one := newRing(1, 0)
	if one.shardFor("anything") != 0 {
		t.Fatal("single-shard ring routed off shard 0")
	}
}

func TestMapEncodePromoteStaleness(t *testing.T) {
	m := NewMap([]string{"a:1", "b:2"})
	if err := m.SetReplica(0, "a-rep:1"); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMap(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != m.Version || len(got.Shards) != 2 || got.Shards[0].Replica != "a-rep:1" {
		t.Fatalf("round-trip mismatch: %+v vs %+v", got, m)
	}
	v := m.Version
	if err := m.Promote(0); err != nil {
		t.Fatal(err)
	}
	if m.Shards[0].Primary != "a-rep:1" || m.Shards[0].Replica != "a:1" || m.Version != v+1 {
		t.Fatalf("promote result: %+v version %d", m.Shards[0], m.Version)
	}
	if err := m.Promote(1); err == nil {
		t.Fatal("promote of replica-less shard succeeded")
	}
	if err := m.Promote(9); err == nil {
		t.Fatal("promote of unknown shard succeeded")
	}
	if _, err := DecodeMap([]byte(`{"version":1}`)); err == nil {
		t.Fatal("shardless map decoded")
	}
}

// --- determinism: cluster state ≡ single store -----------------------------

func TestClusterDumpBitIdenticalToSingleStore(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("%d-shards", shards), func(t *testing.T) {
			tc := startCluster(t, shards, false, nil)
			c := tc.client(Config{})
			ref := kvstore.New()
			workload(t, c, ref)

			want := string(ref.Dump())
			got := clusterDump(t, c, "alpha", "beta")
			if want == "" {
				t.Fatal("empty reference dump; workload broken")
			}
			if got != want {
				t.Fatalf("cluster dump differs from single store:\nwant:\n%sgot:\n%s", want, got)
			}

			// A column-prefix scan, through kvnet and the merge, selects what
			// the reference store's does: latest versions and every version.
			refA, _ := ref.Table("alpha")
			same := func(a, b kvstore.Cell) bool {
				return a.Row == b.Row && a.Column == b.Column && a.Version.Timestamp == b.Version.Timestamp &&
					bytes.Equal(a.Version.Value, b.Version.Value)
			}
			opts := kvstore.ScanOptions{ColumnPrefix: "c1"}
			wantCells := refA.Scan(opts)
			if n := len(refA.Scan(kvstore.ScanOptions{})); len(wantCells) == 0 || len(wantCells) >= n {
				t.Fatalf("prefix selects %d of %d cells; want a strict, non-empty subset", len(wantCells), n)
			}
			gotCells, err := c.Scan("alpha", opts)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(gotCells, wantCells, same) {
				t.Fatalf("Scan(%+v) = %v, want %v", opts, gotCells, wantCells)
			}
			wantVersions := refA.ScanVersions(opts)
			if len(wantVersions) <= len(wantCells) {
				t.Fatalf("%d versions of %d cells: the prefix misses the multi-version cells", len(wantVersions), len(wantCells))
			}
			gotVersions, err := c.ScanVersions("alpha", opts)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(gotVersions, wantVersions, same) {
				t.Fatalf("ScanVersions(%+v) = %v, want %v", opts, gotVersions, wantVersions)
			}

			// Gets route correctly and see latest values.
			v, found, err := c.Get("alpha", "row-07", "c1")
			if err != nil || !found {
				t.Fatalf("Get: %v found=%v", err, found)
			}
			wv, _ := refA.Get("row-07", "c1")
			if !bytes.Equal(v, wv) {
				t.Fatalf("Get = %q want %q", v, wv)
			}
			if _, found, err := c.Get("alpha", "row-03", "c0"); err != nil || found {
				t.Fatalf("deleted cell: found=%v err=%v", found, err)
			}
		})
	}
}

// --- replication / catch-up ------------------------------------------------

func TestFollowerMirrorsPrimary(t *testing.T) {
	tc := startCluster(t, 2, true, nil)
	c := tc.client(Config{})
	ref := kvstore.New()
	workload(t, c, ref)

	// Every follower holds exactly what its primary holds, and the primaries
	// together hold the reference.
	for s := range tc.Primaries {
		if pd, fd := tc.Primaries[s].Store().Dump(), tc.Followers[s].Store().Dump(); !bytes.Equal(pd, fd) {
			t.Fatalf("shard %d follower differs from its primary:\nprimary:\n%sfollower:\n%s", s, pd, fd)
		}
	}
	if want, got := string(ref.Dump()), clusterDump(t, c, "alpha", "beta"); got != want {
		t.Fatalf("cluster dump differs from reference:\nwant:\n%sgot:\n%s", want, got)
	}
	// Log heads agree pairwise: follower logs are checksum-prefixes of
	// their primaries'.
	for s := range tc.Primaries {
		pc, pcrc := tc.Primaries[s].Log().Status()
		fc, fcrc := tc.Followers[s].Log().Status()
		if pc != fc || pcrc != fcrc {
			t.Fatalf("shard %d log heads differ: primary (%d,%x) follower (%d,%x)", s, pc, pcrc, fc, fcrc)
		}
	}
}

func TestCatchUpFromCursor(t *testing.T) {
	tc := startCluster(t, 1, true, nil)
	c := tc.client(Config{})
	if err := c.CreateTable("t", 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := c.Put("t", fmt.Sprintf("r%02d", i), "c", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Follower goes away; primary keeps writing.
	tc.Primaries[0].DetachFollower()
	for i := 10; i < 25; i++ {
		if err := c.Put("t", fmt.Sprintf("r%02d", i), "c", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	fcur, _ := tc.Followers[0].Log().Status()
	pcur, _ := tc.Primaries[0].Log().Status()
	if fcur >= pcur {
		t.Fatalf("follower cursor %d not behind primary %d", fcur, pcur)
	}
	// Re-attach: catch-up streams Since(cursor), then live shipping resumes.
	if err := tc.Primaries[0].AttachFollower(tc.Followers[0].Addr()); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("t", "r99", "c", []byte("live")); err != nil {
		t.Fatal(err)
	}
	pd := string(tc.Primaries[0].Store().Dump())
	fd := string(tc.Followers[0].Store().Dump())
	if pd != fd {
		t.Fatalf("follower diverged after catch-up:\nprimary:\n%sfollower:\n%s", pd, fd)
	}
	fc, fcrc := tc.Followers[0].Log().Status()
	pc, pcrc := tc.Primaries[0].Log().Status()
	if fc != pc || fcrc != pcrc {
		t.Fatalf("log heads differ after catch-up: follower (%d,%x) primary (%d,%x)", fc, fcrc, pc, pcrc)
	}
}

func TestDivergedFollowerRequiresReset(t *testing.T) {
	tc := startCluster(t, 1, false, nil)
	c := tc.client(Config{})
	if err := c.CreateTable("t", 3); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("t", "r1", "c", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// A would-be follower with its own history (a demoted primary's un-acked
	// tail): direct writes it never shipped anywhere.
	stray, err := NewNode(NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = stray.Close() })
	st, err := stray.Store().EnsureTable("t", kvstore.TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("ghost", "c", []byte("unacked")); err != nil {
		t.Fatal(err)
	}
	if err := tc.Primaries[0].AttachFollower(stray.Addr()); !errors.Is(err, ErrDivergedFollower) {
		t.Fatalf("attach of diverged follower = %v, want ErrDivergedFollower", err)
	}
	// Reset wipes it back to a clean slate; the attach then resyncs from 0.
	stray.Reset()
	if err := tc.Primaries[0].AttachFollower(stray.Addr()); err != nil {
		t.Fatal(err)
	}
	if pd, sd := string(tc.Primaries[0].Store().Dump()), string(stray.Store().Dump()); pd != sd {
		t.Fatalf("resynced follower differs:\nprimary:\n%sfollower:\n%s", pd, sd)
	}
}

// --- failover --------------------------------------------------------------

// blipConn fails the first write made after its shared flag is armed,
// closing the connection the way a dropped link would.
type blipConn struct {
	net.Conn
	armed *atomic.Bool
}

func (c *blipConn) Write(b []byte) (int, error) {
	if c.armed.CompareAndSwap(true, false) {
		_ = c.Conn.Close()
		return 0, errors.New("injected blip")
	}
	return c.Conn.Write(b)
}

func TestFailoverPromotesReplica(t *testing.T) {
	inj := fault.New(fault.Policy{})
	tc := startCluster(t, 2, true, inj)
	var failed []string
	var blip atomic.Bool
	dial := fault.Dialer(inj)
	c := tc.client(Config{
		ProbeRetries: 1,
		OnFailover: func(shard int, from, to string) {
			failed = append(failed, fmt.Sprintf("%d:%s->%s", shard, from, to))
		},
		Client: kvnet.ClientConfig{Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			conn, err := dial(addr, timeout)
			if err != nil {
				return nil, err
			}
			return &blipConn{Conn: conn, armed: &blip}, nil
		}},
	})
	ref := kvstore.New()
	workload(t, c, ref)

	// One transport failure on shard 0's data connection while its primary
	// still answers pings: the on-demand probe clears the primary, so the op
	// fails without a promotion, and its retry succeeds on a fresh dial.
	row := "row-00"
	for i := 1; c.shardFor(row) != 0; i++ {
		row = fmt.Sprintf("row-%02d", i)
	}
	before := c.Map()
	blip.Store(true)
	if _, _, err := c.Get("alpha", row, "c0"); !kvnet.IsTransport(err) {
		t.Fatalf("Get across a blip = %v, want a transport error", err)
	}
	if _, _, err := c.Get("alpha", row, "c0"); err != nil {
		t.Fatalf("Get retried after a blip: %v", err)
	}
	if m := c.Map(); len(failed) != 0 || m.Version != before.Version || m.Shards[0].Epoch != before.Shards[0].Epoch {
		t.Fatalf("a blip moved the map: failovers %v, version %d -> %d, epoch %d -> %d",
			failed, before.Version, m.Version, before.Shards[0].Epoch, m.Shards[0].Epoch)
	}

	// Kill shard 0's primary: all conns to it drop, dials are refused.
	victim := tc.Primaries[0].Addr()
	inj.Partition(victim)

	// Every op keeps working; ops routed to shard 0 go through failover.
	for i := 0; i < 20; i++ {
		row := fmt.Sprintf("row-%02d", i%20)
		val := []byte(fmt.Sprintf("after-kill-%d", i))
		if err := c.Put("alpha", row, "c9", val); err != nil {
			t.Fatalf("Put after kill: %v", err)
		}
		refA, _ := ref.Table("alpha")
		if err := refA.Put(row, "c9", val); err != nil {
			t.Fatal(err)
		}
	}
	if len(failed) != 1 {
		t.Fatalf("failovers = %v, want exactly one", failed)
	}
	m := c.Map()
	if m.Shards[0].Primary != tc.Followers[0].Addr() {
		t.Fatalf("map primary = %s, want promoted follower %s", m.Shards[0].Primary, tc.Followers[0].Addr())
	}
	if m.Version != tc.Map.Version+1 {
		t.Fatalf("map version = %d, want %d", m.Version, tc.Map.Version+1)
	}

	// The merged dump still matches the reference bit-for-bit: the replica
	// held every acked write at promotion time.
	want := string(ref.Dump())
	got := clusterDump(t, c, "alpha", "beta")
	if got != want {
		t.Fatalf("post-failover dump differs:\nwant:\n%sgot:\n%s", want, got)
	}

	// The surviving other-shard primary learned the new map.
	cl, err := kvnet.Dial(tc.Primaries[1].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	mb, err := cl.MapGet()
	if err != nil {
		t.Fatal(err)
	}
	pushed, err := DecodeMap(mb)
	if err != nil {
		t.Fatal(err)
	}
	if pushed.Version != m.Version {
		t.Fatalf("pushed map version %d, want %d", pushed.Version, m.Version)
	}
}

// TestRejoinAfterFailover runs the full node lifecycle: primary killed,
// replica promoted, dead node healed, Reset, re-attached as the promoted
// node's follower, catch-up to an identical log head. Reset must also drop
// the dead primary's own stale follower link (it still points at the node
// that was promoted over it); keeping it would forward the catch-up stream
// back to its source and deadlock the attach.
func TestRejoinAfterFailover(t *testing.T) {
	inj := fault.New(fault.Policy{})
	tc := startCluster(t, 1, true, inj)
	c := tc.client(Config{ProbeRetries: 1})
	if err := c.CreateTable("t", 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := c.Put("t", fmt.Sprintf("r%02d", i), "c", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	inj.Partition(tc.Primaries[0].Addr())
	for i := 10; i < 20; i++ {
		if err := c.Put("t", fmt.Sprintf("r%02d", i), "c", []byte{byte(i)}); err != nil {
			t.Fatalf("put %d across failover: %v", i, err)
		}
	}
	promoted := tc.Followers[0]
	if c.Map().Shards[0].Primary != promoted.Addr() {
		t.Fatal("replica was not promoted")
	}

	// Rejoin: the dead node heals, resets (dropping its stale follower link
	// to the promoted node) and catches up as the new follower.
	inj.Heal(tc.Primaries[0].Addr())
	rejoined := tc.Primaries[0]
	rejoined.Reset()
	if got := rejoined.FollowerAddr(); got != "" {
		t.Fatalf("Reset left follower link to %s attached", got)
	}
	done := make(chan error, 1)
	go func() { done <- promoted.AttachFollower(rejoined.Addr()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("re-attach after reset: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("AttachFollower deadlocked (replication cycle)")
	}
	// Live replication works on the new topology too.
	if err := c.Put("t", "r99", "c", []byte("post-rejoin")); err != nil {
		t.Fatal(err)
	}
	pd := string(promoted.Store().Dump())
	rd := string(rejoined.Store().Dump())
	if pd != rd {
		t.Fatalf("rejoined follower differs:\npromoted:\n%srejoined:\n%s", pd, rd)
	}
	pc, pcrc := promoted.Log().Status()
	rc, rcrc := rejoined.Log().Status()
	if pc != rc || pcrc != rcrc {
		t.Fatalf("log heads differ after rejoin: promoted (%d,%x) rejoined (%d,%x)", pc, pcrc, rc, rcrc)
	}
}

// --- scatter-gather under failover (satellite) -----------------------------

// TestScanMergeMidScanFailover kills a shard's primary after the scan read
// shard 0 and before it reads shard 1, and asserts the merged result is
// byte-identical to the pre-kill truth: shard 1 is read on its promoted
// replica, with no duplicates and no gaps.
func TestScanMergeMidScanFailover(t *testing.T) {
	inj := fault.New(fault.Policy{})
	tc := startCluster(t, 3, true, inj)
	c := tc.client(Config{ProbeRetries: 1})
	if err := c.CreateTable("t", 3); err != nil {
		t.Fatal(err)
	}
	// Some multi-cell rows, more than one scan chunk on every shard.
	ref := kvstore.New()
	rt, _ := ref.EnsureTable("t", kvstore.TableOptions{MaxVersions: 3})
	for i := 0; i < 2000; i++ {
		row := fmt.Sprintf("row-%04d", i)
		col := fmt.Sprintf("c%d", i%2)
		val := []byte(fmt.Sprintf("v%d", i))
		if err := c.Put("t", row, col, val); err != nil {
			t.Fatal(err)
		}
		if err := rt.Put(row, col, val); err != nil {
			t.Fatal(err)
		}
	}
	want := rt.Scan(kvstore.ScanOptions{})

	// Kill shard 1's primary right before the scan reads it.
	killed := false
	c.onShardScan = func(shard int) {
		if shard == 1 && !killed {
			killed = true
			inj.Partition(tc.Primaries[1].Addr())
		}
	}
	got, err := c.Scan("t", kvstore.ScanOptions{})
	if err != nil {
		t.Fatalf("scan across mid-scan failover: %v", err)
	}
	if !killed {
		t.Fatal("kill hook never fired")
	}
	if len(got) != len(want) {
		t.Fatalf("merged scan has %d cells, want %d (duplicates or gaps)", len(got), len(want))
	}
	for i := range got {
		if got[i].Row != want[i].Row || got[i].Column != want[i].Column ||
			got[i].Version.Timestamp != want[i].Version.Timestamp ||
			!bytes.Equal(got[i].Version.Value, want[i].Version.Value) {
			t.Fatalf("cell %d: got (%s,%s,@%d,%q) want (%s,%s,@%d,%q)",
				i, got[i].Row, got[i].Column, got[i].Version.Timestamp, got[i].Version.Value,
				want[i].Row, want[i].Column, want[i].Version.Timestamp, want[i].Version.Value)
		}
	}
	if c.Map().Shards[1].Primary != tc.Followers[1].Addr() {
		t.Fatal("shard 1 was not failed over during the scan")
	}
}

// --- mirror mode -----------------------------------------------------------

func TestMirrorShipsExistingAndLiveState(t *testing.T) {
	tc := startCluster(t, 3, false, nil)
	c := tc.client(Config{})

	local := kvstore.New()
	lt, err := local.CreateTable("pre", kvstore.TableOptions{MaxVersions: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-existing state, including multi-version cells, before Mirror.
	for i := 0; i < 30; i++ {
		if err := lt.Put(fmt.Sprintf("r%02d", i%10), "c", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Mirror(local); err != nil {
		t.Fatal(err)
	}
	// Live writes after attach, on old and brand-new tables.
	for i := 0; i < 10; i++ {
		if err := lt.Put(fmt.Sprintf("r%02d", i), "c2", []byte("live")); err != nil {
			t.Fatal(err)
		}
	}
	nt, err := local.CreateTable("post", kvstore.TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := nt.PutFloat("k", "v", 4.25); err != nil {
		t.Fatal(err)
	}
	if err := lt.Delete("r03", "c"); err != nil {
		t.Fatal(err)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("mirror ship error: %v", err)
	}
	want := string(local.Dump())
	got := clusterDump(t, c, local.TableNames()...)
	if got != want {
		t.Fatalf("mirrored cluster differs from local store:\nwant:\n%sgot:\n%s", want, got)
	}
}

// --- the shared rig ---------------------------------------------------------

// TestStartLocalClosesWhatItStartedOnFailure fails one node's listener — the
// last primary, then a replica behind an already-attached shard — and
// requires StartLocal to have closed every node it had started: their ports
// refuse connections and no goroutine of theirs is left running.
func TestStartLocalClosesWhatItStartedOnFailure(t *testing.T) {
	for _, tt := range []struct {
		name    string
		shard   int
		replica bool
	}{
		{"primary-2", 2, false},
		{"replica-1", 1, true},
	} {
		t.Run(tt.name, func(t *testing.T) {
			occupied := rawListener(t)
			defer func() { _ = occupied.Close() }()
			before := runtime.NumGoroutine()
			var started []string
			local, err := StartLocal(3, true, func(shard int, replica bool) (NodeConfig, error) {
				if shard == tt.shard && replica == tt.replica {
					return NodeConfig{Addr: occupied.Addr().String()}, nil
				}
				ln := rawListener(t)
				started = append(started, ln.Addr().String())
				return NodeConfig{Listener: ln}, nil
			})
			if err == nil {
				local.Close()
				t.Fatal("StartLocal succeeded over an occupied port")
			}
			if want := fmt.Sprintf("shard %d", tt.shard); !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %s", err, want)
			}
			for _, addr := range started {
				if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
					_ = conn.Close()
					t.Errorf("node on %s still accepts connections", addr)
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines before, %d after a failed start", before, runtime.NumGoroutine())
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}
