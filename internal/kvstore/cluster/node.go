package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"smartflux/internal/durable"
	"smartflux/internal/kvstore"
	"smartflux/internal/kvstore/kvnet"
	"smartflux/internal/obs"
)

// replSegment bounds how many records one catch-up Repl frame carries, so a
// long history streams as many small frames instead of one giant one.
const replSegment = 256

// ErrDivergedFollower reports a follower whose replication log does not
// checksum-match a prefix of the primary's: its history contains records the
// primary never shipped (e.g. a demoted primary's un-acked tail), so a
// cursor-based catch-up would silently fork state. The follower must Reset
// and resync from zero.
var ErrDivergedFollower = errors.New("cluster: follower history diverged; reset and resync required")

// NodeConfig configures one cluster node.
type NodeConfig struct {
	// Addr is the TCP listen address; empty means "127.0.0.1:0".
	Addr string
	// Listener, when non-nil, serves on this pre-bound listener instead of
	// Addr — the hook for fault-injecting wrappers.
	Listener net.Listener
	// Follower configures the replication-link client this node dials when
	// AttachFollower is called (retry budget, fault dialer, ...).
	Follower kvnet.ClientConfig
	// Label tags this node's obs counters (smartflux_cluster_*_total
	// {node=Label}); empty leaves them unlabeled. Obs nil disables them.
	Label string
	Obs   *obs.Observer
}

// Node is one cluster member: a kvstore served over kvnet, a replication log
// of every record it has originated or applied, and (when this node acts as
// a primary) a link shipping that log to a follower. A node has no fixed
// role — the partition map decides who is primary; a follower becomes one
// the moment clients start writing to it.
type Node struct {
	cfg   NodeConfig
	store *kvstore.Store
	srv   *kvnet.Server
	log   *durable.ReplLog
	addr  string

	// applying counts in-flight replication applications. While positive,
	// table creates observed on the store came from the replication stream
	// itself and must not be re-logged (the record is already in the log).
	applying atomic.Int32

	// epoch is the highest fencing epoch this node has observed — from a
	// stamped replication frame, a partition-map push, or its own shard
	// entry. fenced marks the node demoted: it learned of a higher epoch
	// (or could not reach its follower mid-ship) and refuses every write
	// until Reset wipes it for a rejoin (DESIGN.md §8).
	epoch  atomic.Uint64
	fenced atomic.Bool

	// shipMu serializes append-and-ship so the follower receives records in
	// exactly this node's log order — the invariant the cursor/checksum
	// catch-up handshake rests on. AttachFollower holds it while streaming
	// history, briefly pausing writes instead of losing records appended
	// between the stream snapshot and the attach.
	shipMu       sync.Mutex
	follower     *kvnet.Client
	followerAddr string

	mapMu    sync.Mutex
	mapBytes []byte

	replApplied  *obs.Counter // nil-safe when uninstrumented
	replShipped  *obs.Counter
	shipErrs     *obs.Counter
	fencedWrites *obs.Counter
	demotions    *obs.Counter
}

// NewNode creates a node and starts its server.
func NewNode(cfg NodeConfig) (*Node, error) {
	n := &Node{
		cfg:   cfg,
		store: kvstore.New(),
		log:   durable.NewReplLog(),
	}
	if cfg.Obs != nil {
		label := ""
		if cfg.Label != "" {
			label = fmt.Sprintf("{node=%q}", cfg.Label)
		}
		n.replApplied = cfg.Obs.Counter("smartflux_cluster_repl_applied_total" + label)
		n.replShipped = cfg.Obs.Counter("smartflux_cluster_repl_shipped_total" + label)
		n.shipErrs = cfg.Obs.Counter("smartflux_cluster_ship_errors_total" + label)
		n.fencedWrites = cfg.Obs.Counter("smartflux_cluster_fenced_writes_total" + label)
		n.demotions = cfg.Obs.Counter("smartflux_cluster_self_demotions_total" + label)
	}
	n.store.OnTableCreate(n.onTableCreate)
	n.srv = kvnet.NewServer(n.store)
	n.srv.SetReplHandler(n.applyRepl)
	n.srv.SetWriteGate(n.writeGate)
	n.srv.SetStatusHandler(n.status)
	n.srv.SetMapHandlers(n.mapGet, n.mapSet)
	if cfg.Obs != nil {
		n.srv.Instrument(cfg.Obs)
	}
	var (
		addr string
		err  error
	)
	if cfg.Listener != nil {
		addr, err = n.srv.ServeListener(cfg.Listener)
	} else {
		listen := cfg.Addr
		if listen == "" {
			listen = "127.0.0.1:0"
		}
		addr, err = n.srv.Listen(listen)
	}
	if err != nil {
		return nil, err
	}
	n.addr = addr
	return n, nil
}

// Addr returns the node's bound serving address.
func (n *Node) Addr() string { return n.addr }

// Store exposes the node's store for verification (dumps, direct reads).
func (n *Node) Store() *kvstore.Store { return n.store }

// Log exposes the node's replication log.
func (n *Node) Log() *durable.ReplLog { return n.log }

// Epoch returns the highest fencing epoch the node has observed.
func (n *Node) Epoch() uint64 { return n.epoch.Load() }

// Fenced reports whether the node has self-demoted to read-only mode.
func (n *Node) Fenced() bool { return n.fenced.Load() }

// writeGate is consulted by the server before every mutating op and every
// replication frame: a fenced node serves reads but refuses all writes, so
// a demoted primary alive behind a healed partition can never ack state the
// promoted timeline will not contain.
func (n *Node) writeGate() error {
	if n.fenced.Load() {
		n.fencedWrites.Inc() // nil-safe no-op when uninstrumented
		return fmt.Errorf("%w: node %s demoted at epoch %d", kvnet.ErrFenced, n.addr, n.epoch.Load())
	}
	return nil
}

// adoptEpoch raises the node's observed epoch to e; lower values are ignored.
func (n *Node) adoptEpoch(e uint64) {
	for {
		cur := n.epoch.Load()
		if e <= cur || n.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// fence demotes the node: it severs the outgoing follower link (a demoted
// primary usually still points at the very node promoted over it) and flips
// the fenced flag. Idempotent; only the first demotion counts.
func (n *Node) fence() {
	n.shipMu.Lock()
	defer n.shipMu.Unlock()
	n.dropFollowerLocked()
	n.fenceLocked()
}

// dropFollowerLocked closes and forgets the outgoing follower link, if any;
// callers hold shipMu.
func (n *Node) dropFollowerLocked() {
	if n.follower != nil {
		_ = n.follower.Close()
		n.follower = nil
		n.followerAddr = ""
	}
}

// fenceLocked flips the fenced flag; callers hold shipMu (or otherwise
// guarantee the follower link is already severed).
func (n *Node) fenceLocked() {
	if !n.fenced.Swap(true) {
		n.demotions.Inc() // nil-safe no-op when uninstrumented
	}
}

// onTableCreate runs for every table created on the store, from any path.
// It always subscribes the mutation observer (a promoted follower's direct
// writes must be logged and shipped too), but logs a create record only for
// local creates — replicated creates are already in the stream being
// applied, and re-logging them would fork this log from the primary's.
func (n *Node) onTableCreate(t *kvstore.Table) {
	local := n.applying.Load() == 0
	t.Subscribe(kvstore.ObserverFunc(n.onMutation))
	if local {
		// Store observers cannot veto the create; the fencing consequence
		// of a failed ship (the node demotes) is carried by the flag.
		_ = n.appendAndShip([][]byte{durable.EncodeCreateRecord(t.Name(), t.MaxVersions())})
	}
}

// onMutation logs and ships every live mutation (direct kvnet Put/Delete/
// Apply or in-process writes). Replication applications never reach here —
// the replay operations do not notify observers — so there is no loop.
// Observers cannot fail the mutation; a ship failure still fences the node
// so no later write is acked on the dead timeline.
func (n *Node) onMutation(m kvstore.Mutation) {
	_ = n.appendAndShip([][]byte{durable.EncodeMutationRecord(m)})
}

// appendAndShip appends records to the log and synchronously forwards them
// to the attached follower, stamped with this node's epoch. Shipping before
// the originating operation returns means every write acked by this node has
// reached its follower — a promotion can lose only writes that were never
// acknowledged, and those retry idempotently. A ship failure severs the link
// and self-demotes: a primary that cannot reach its follower may already be
// the partitioned minority, and acking writes the promoted timeline will
// never contain is exactly the split-brain fencing exists to prevent. The
// returned error (wrapping kvnet.ErrFenced) fails the triggering operation,
// so the write is not acked.
func (n *Node) appendAndShip(recs [][]byte) error {
	n.shipMu.Lock()
	defer n.shipMu.Unlock()
	for _, rec := range recs {
		n.log.Append(rec)
	}
	if n.follower == nil {
		return nil
	}
	if err := n.follower.ReplEpoch(n.epoch.Load(), recs); err != nil {
		n.shipErrs.Inc()
		n.dropFollowerLocked()
		n.fenceLocked()
		return fmt.Errorf("%w: ship to follower failed, self-demoting: %v", kvnet.ErrFenced, err)
	}
	n.replShipped.Add(uint64(len(recs)))
	return nil
}

// applyRepl answers OpRepl frames: apply each record to the store, append it
// to this node's log, and forward the batch to this node's own follower (so
// a primary that is itself replicated passes client writes down the chain).
// The frame's epoch stamp is the fencing check: a stamp below the highest
// epoch this node has seen is a stale-timeline write (a client or demoted
// primary that missed a promotion) and is rejected with ErrFenced; a higher
// stamp is adopted. Epoch 0 is no exception: it is below every epoch a map
// hands out, so only a node that has adopted none accepts it.
func (n *Node) applyRepl(epoch uint64, records [][]byte) error {
	if cur := n.epoch.Load(); epoch < cur {
		n.fencedWrites.Inc() // nil-safe no-op when uninstrumented
		return fmt.Errorf("%w: repl epoch %d below node epoch %d", kvnet.ErrFenced, epoch, cur)
	}
	n.adoptEpoch(epoch)
	n.applying.Add(1)
	for _, rec := range records {
		if err := durable.ApplyRecord(n.store, rec); err != nil {
			n.applying.Add(-1)
			return err
		}
	}
	n.applying.Add(-1)
	n.replApplied.Add(uint64(len(records)))
	return n.appendAndShip(records)
}

// status answers OpStatus frames: the store clock and the replication log
// head as a (cursor, checksum) pair.
func (n *Node) status() (clock, cursor uint64, crc uint32) {
	cursor, crc = n.log.Status()
	return n.store.Clock(), cursor, crc
}

// mapGet answers OpMapGet frames with the last partition map this node saw.
func (n *Node) mapGet() []byte {
	n.mapMu.Lock()
	defer n.mapMu.Unlock()
	return n.mapBytes
}

// mapSet answers OpMapSet frames, validating before accepting. Stale
// versions are rejected so a delayed push cannot roll the node's view back.
func (n *Node) mapSet(b []byte) error {
	m, err := DecodeMap(b)
	if err != nil {
		return err
	}
	return n.installMap(m, append([]byte(nil), b...), true)
}

// SetMap installs a partition map locally (the in-process equivalent of an
// OpMapSet push), with the same epoch learning as mapSet.
func (n *Node) SetMap(m *Map) {
	_ = n.installMap(m, m.Encode(), false) // refuses nothing without refuseStale
}

// installMap makes m, encoded as b, the node's map and learns from it: the
// node adopts its own shard's epoch, and a node the map has demoted (it was
// a shard's primary, now its replica) fences itself. With refuseStale, a map
// whose version is below the installed one's is refused instead.
func (n *Node) installMap(m *Map, b []byte, refuseStale bool) error {
	n.mapMu.Lock()
	var prev *Map
	if n.mapBytes != nil {
		if cur, err := DecodeMap(n.mapBytes); err == nil {
			if refuseStale && m.Version < cur.Version {
				n.mapMu.Unlock()
				return fmt.Errorf("cluster: stale partition map version %d < %d", m.Version, cur.Version)
			}
			prev = cur
		}
	}
	n.mapBytes = b
	n.mapMu.Unlock()
	n.learnMap(prev, m)
	return nil
}

// learnMap extracts this node's fencing facts from a newly installed map.
// A shard listing us as primary carries our authoritative epoch. A shard
// listing us as replica demotes us only when our previous map listed us as
// that shard's primary — the map moved past us, so we fence. Without that
// prior-primary condition a fresh follower would fence at cluster startup,
// since initial maps list it as replica at epoch 1 against its epoch 0.
func (n *Node) learnMap(prev, m *Map) {
	for i := range m.Shards {
		s := &m.Shards[i]
		switch n.addr {
		case s.Primary:
			n.adoptEpoch(s.Epoch)
		case s.Replica:
			if prev != nil && i < len(prev.Shards) && prev.Shards[i].Primary == n.addr {
				n.adoptEpoch(s.Epoch)
				n.fence()
			}
		}
	}
}

// AttachFollower makes this node ship its replication stream to the node at
// addr, catching the follower up first. The handshake: read the follower's
// (cursor, checksum) status, verify its log is checksum-identical to our
// first cursor records, stream everything after the cursor in segments, and
// only then attach it for synchronous shipping. A checksum mismatch (or a
// follower ahead of us) returns ErrDivergedFollower — the follower holds
// history we never shipped and must Reset before re-attaching.
func (n *Node) AttachFollower(addr string) error {
	cl, err := kvnet.DialConfig(addr, n.cfg.Follower)
	if err != nil {
		return fmt.Errorf("cluster: attach follower %s: %w", addr, err)
	}
	_, cursor, crc, err := cl.Status()
	if err != nil {
		_ = cl.Close()
		return fmt.Errorf("cluster: follower %s status: %w", addr, err)
	}
	ours, ok := n.log.Checksum(cursor)
	if !ok || ours != crc {
		_ = cl.Close()
		return fmt.Errorf("%w (follower %s at cursor %d)", ErrDivergedFollower, addr, cursor)
	}

	// Stream history and attach under shipMu: writes pause briefly instead
	// of slipping between the end of the stream and the first live ship.
	n.shipMu.Lock()
	defer n.shipMu.Unlock()
	n.dropFollowerLocked()
	backlog := n.log.Since(cursor)
	for len(backlog) > 0 {
		seg := backlog
		if len(seg) > replSegment {
			seg = seg[:replSegment]
		}
		if err := cl.ReplEpoch(n.epoch.Load(), seg); err != nil {
			_ = cl.Close()
			return fmt.Errorf("cluster: catch-up to %s: %w", addr, err)
		}
		n.replShipped.Add(uint64(len(seg)))
		backlog = backlog[len(seg):]
	}
	n.follower = cl
	n.followerAddr = addr
	return nil
}

// DetachFollower stops shipping and closes the replication link, if any.
func (n *Node) DetachFollower() {
	n.shipMu.Lock()
	defer n.shipMu.Unlock()
	n.dropFollowerLocked()
}

// FollowerAddr returns the currently attached follower's address, or "".
func (n *Node) FollowerAddr() string {
	n.shipMu.Lock()
	defer n.shipMu.Unlock()
	return n.followerAddr
}

// Reset wipes the node back to empty — tables, clock, replication log, the
// outgoing follower link, and all fencing state — so a node with diverged
// history (a demoted primary rejoining after failover) can re-attach as a
// follower and resync from cursor zero. Dropping the follower link matters:
// a demoted primary usually still ships to the very node that was promoted
// over it, and keeping that link alive would forward the catch-up stream
// back to its source — a replication cycle. The fence clears with the data
// it protected; the cached map clears too, or the next map push would see
// this node as the shard's prior primary and immediately re-fence it. The
// caller must ensure no traffic is being served during the reset.
func (n *Node) Reset() {
	n.shipMu.Lock()
	n.dropFollowerLocked()
	for _, name := range n.store.TableNames() {
		_ = n.store.DropTable(name)
	}
	n.store.SetClock(0)
	n.log.Reset()
	n.fenced.Store(false)
	n.epoch.Store(0)
	n.shipMu.Unlock()
	n.mapMu.Lock()
	n.mapBytes = nil
	n.mapMu.Unlock()
}

// Close detaches the follower link and shuts the server down.
func (n *Node) Close() error {
	n.DetachFollower()
	return n.srv.Close()
}
