package main

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"time"

	"smartflux/internal/core"
	"smartflux/internal/durable"
	"smartflux/internal/engine"
	"smartflux/internal/kvstore"
	"smartflux/internal/kvstore/cluster"
)

// backend is what the live store is attached to for the application phase.
type backend interface {
	// commit is the per-wave epilogue inside the timed region; wave is the
	// number of waves the live instance has completed.
	commit(wave int, tr *tracer) error
	// verify checks the backend's copy of the data against the live store
	// once the phase is over. It may shut the backend down to do so.
	verify(live *kvstore.Store) error
	close()
}

// noBackend is the in-memory workloads' backend: nothing to commit or verify.
type noBackend struct{}

func (noBackend) commit(int, *tracer) error   { return nil }
func (noBackend) verify(*kvstore.Store) error { return nil }
func (noBackend) close()                      {}

// durableName is the recovery name the live store is registered under.
const durableName = "live"

// checkpoint is the per-wave commit payload of the WAL workload: what a
// restarted process needs to continue the live run with identical decisions.
type checkpoint struct {
	Live    engine.InstancePersist
	Session *core.SessionCheckpoint
}

// durableBackend journals the live store through a durable.Manager with one
// fsynced commit record — carrying the gob-encoded checkpoint — per wave.
type durableBackend struct {
	dir     string
	mgr     *durable.Manager
	live    *engine.Instance
	session *core.Session

	payloadBytes int           // size of the last checkpoint
	recover      time.Duration // wall time of verify's Recover + Apply
}

func attachDurable(tmpDir string, live *engine.Instance, session *core.Session) (*durableBackend, error) {
	dir, err := os.MkdirTemp(tmpDir, "wal-")
	if err != nil {
		return nil, err
	}
	b := &durableBackend{dir: dir, live: live, session: session}
	if b.mgr, err = durable.Open(durable.Options{Dir: dir, Fsync: durable.FsyncCommit}); err != nil {
		b.close()
		return nil, err
	}
	if err := b.mgr.Register(durableName, live.Store()); err != nil {
		b.close()
		return nil, err
	}
	payload, err := b.encode()
	if err != nil {
		b.close()
		return nil, err
	}
	if err := b.mgr.Begin(live.Wave(), payload); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *durableBackend) encode() ([]byte, error) {
	scp, err := b.session.Checkpoint()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(checkpoint{Live: b.live.PersistState(), Session: scp}); err != nil {
		return nil, fmt.Errorf("encode checkpoint: %w", err)
	}
	b.payloadBytes = buf.Len()
	return buf.Bytes(), nil
}

func (b *durableBackend) commit(wave int, tr *tracer) error {
	t0 := tr.now()
	payload, err := b.encode()
	tr.record(kindCheckpoint, t0, int64(len(payload)))
	if err != nil {
		return err
	}
	t0 = tr.now()
	err = b.mgr.Commit(wave, payload)
	tr.record(kindCommit, t0, 0)
	return err
}

// verify closes the manager, recovers the directory into a fresh store and
// requires its dump to equal the live store's as of the last commit.
func (b *durableBackend) verify(live *kvstore.Store) error {
	if err := b.mgr.Err(); err != nil {
		return fmt.Errorf("durable manager: %w", err)
	}
	if err := b.mgr.Close(); err != nil {
		return err
	}
	start := time.Now()
	rec, err := durable.Recover(b.dir, nil)
	if err != nil {
		return err
	}
	if rec == nil {
		return errors.New("durable: nothing to recover")
	}
	recovered := kvstore.New()
	if err := rec.Apply(durableName, recovered); err != nil {
		return err
	}
	b.recover = time.Since(start)
	if rec.Wave != b.live.Wave() {
		return fmt.Errorf("durable: recovered wave %d, live instance is at wave %d", rec.Wave, b.live.Wave())
	}
	want, err := dumpStore(live)
	if err != nil {
		return err
	}
	got, err := dumpStore(recovered)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, got) {
		return fmt.Errorf("durable: recovered store dump (%d bytes) differs from the live store's (%d bytes)", len(got), len(want))
	}
	return nil
}

func (b *durableBackend) close() {
	if b.mgr != nil {
		_ = b.mgr.Close() // verify already surfaced any manager error
	}
	_ = os.RemoveAll(b.dir)
}

// clusterShards is the shard count of the replicated workload's cluster.
const clusterShards = 3

// clusterBackend mirrors the live store into an in-process loopback cluster
// of clusterShards × (primary + replica), built like cmd/smartflux/cluster.go.
// Every store mutation ships synchronously inside the store's observers, so
// the per-wave epilogue only checks that no ship failed.
type clusterBackend struct {
	primaries, followers []*cluster.Node
	client               *cluster.Client
	failovers            int
}

func attachCluster(live *kvstore.Store) (*clusterBackend, error) {
	b := &clusterBackend{}
	addrs := make([]string, 0, clusterShards)
	for s := 0; s < clusterShards; s++ {
		p, err := cluster.NewNode(cluster.NodeConfig{Label: fmt.Sprintf("shard%d", s)})
		if err != nil {
			b.close()
			return nil, err
		}
		b.primaries = append(b.primaries, p)
		addrs = append(addrs, p.Addr())
	}
	m := cluster.NewMap(addrs)
	for s := 0; s < clusterShards; s++ {
		f, err := cluster.NewNode(cluster.NodeConfig{Label: fmt.Sprintf("shard%d-replica", s)})
		if err != nil {
			b.close()
			return nil, err
		}
		b.followers = append(b.followers, f)
		if err := b.primaries[s].AttachFollower(f.Addr()); err != nil {
			b.close()
			return nil, err
		}
		if err := m.SetReplica(s, f.Addr()); err != nil {
			b.close()
			return nil, err
		}
	}
	client, err := cluster.New(cluster.Config{
		Map:        m,
		OnFailover: func(int, string, string) { b.failovers++ },
	})
	if err != nil {
		b.close()
		return nil, err
	}
	b.client = client
	if err := client.Mirror(live); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *clusterBackend) commit(int, *tracer) error { return b.client.Err() }

// verify requires the cluster's merged version dump to equal the live store's
// and the run to have seen no ship error and no failover.
func (b *clusterBackend) verify(live *kvstore.Store) error {
	if err := b.client.Err(); err != nil {
		return fmt.Errorf("cluster: mirror ship failed: %w", err)
	}
	if b.failovers != 0 {
		return fmt.Errorf("cluster: %d failovers on a fault-free run", b.failovers)
	}
	want, err := dumpStore(live)
	if err != nil {
		return err
	}
	var got []byte
	for _, name := range live.TableNames() {
		cells, err := b.client.ScanVersions(name, kvstore.ScanOptions{})
		if err != nil {
			return fmt.Errorf("cluster: scan %s: %w", name, err)
		}
		for _, c := range cells {
			got = appendDumpLine(got, name, c.Row, c.Column, c.Version)
		}
	}
	if !bytes.Equal(want, got) {
		return fmt.Errorf("cluster: merged dump (%d bytes) differs from the live store's (%d bytes)", len(got), len(want))
	}
	return nil
}

// records is the number of replication records the primaries have logged.
func (b *clusterBackend) records() uint64 {
	var n uint64
	for _, p := range b.primaries {
		n += p.Log().Len()
	}
	return n
}

func (b *clusterBackend) close() {
	if b.client != nil {
		_ = b.client.Close()
	}
	for _, n := range b.primaries {
		_ = n.Close()
	}
	for _, n := range b.followers {
		_ = n.Close()
	}
}
