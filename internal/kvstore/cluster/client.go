package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"smartflux/internal/durable"
	"smartflux/internal/kvstore"
	"smartflux/internal/kvstore/kvnet"
	"smartflux/internal/obs"
)

// maxFailoverRetries bounds how many map revisions one operation will chase:
// a retry is only granted when a failover (ours or a concurrent caller's)
// actually changed the map, so this is a shards-dying budget, not a spin.
const maxFailoverRetries = 2

// Config configures a cluster client.
type Config struct {
	// Map is the partition table to route by. Required. The client clones
	// it; promotions mutate only the clone.
	Map *Map
	// Client configures each per-shard kvnet connection (deadlines,
	// retries, fault dialer, ...). Health probes reuse its Dial hook so a
	// partition that kills data traffic also kills probes.
	Client kvnet.ClientConfig
	// Seed drives the health prober's backoff jitter; probing is
	// deterministic given the seed and the failure sequence.
	Seed int64
	// ProbeRetries is how many additional pings a suspect primary gets
	// before being declared dead (default 3).
	ProbeRetries int
	// ProbeBackoff is the base delay between probe attempts, doubling per
	// attempt with seeded jitter (default 10ms).
	ProbeBackoff time.Duration
	// OnFailover, when non-nil, is called after every promotion with the
	// shard index and the old and new primary addresses. Test hook.
	OnFailover func(shard int, from, to string)
	// Obs counts per-shard operations, replication records shipped and
	// failovers, and emits one span per failover.
	Obs *obs.Observer
}

// Client is a cluster-aware kvstore client: it routes every row to its shard
// by consistent hash, writes through timestamped replication records (so the
// cluster's merged state is bit-identical to a single-store run), reads and
// scans with scatter-gather, and transparently fails over to a shard's
// replica when the health check declares its primary dead.
//
// Timestamps: in standalone mode the client assigns logical timestamps from
// its own monotonic counter — one tick per mutation op, including deletes of
// missing cells — exactly mirroring a single store's clock discipline. In
// mirror mode (Mirror) records carry the local store's own timestamps.
type Client struct {
	cfg Config

	mu     sync.Mutex
	m      *Map
	ring   *ring
	conns  []*kvnet.Client // lazily dialed, indexed by shard
	ts     uint64          // standalone-mode logical clock
	closed bool
	err    error // first async mirror-ship failure

	probe *prober

	// breakers holds one circuit breaker per shard (breaker.go); methods
	// are called under mu.
	breakers []*breaker

	failoverSeq int // numbers failover and breaker spans

	// onShardScan, when set (package tests only), runs before a scan reads
	// shard s — the hook mid-scan failover tests use to kill a primary
	// after other shards were read.
	onShardScan func(s int)

	failovers *obs.Counter // nil-safe when uninstrumented
	shipped   *obs.Counter
	shardOps  []*obs.Counter
}

// New creates a client over the given partition map.
func New(cfg Config) (*Client, error) {
	if cfg.Map == nil || len(cfg.Map.Shards) == 0 {
		return nil, errors.New("cluster: config needs a partition map with at least one shard")
	}
	c := &Client{
		cfg:      cfg,
		m:        cfg.Map.Clone(),
		ring:     cfg.Map.ring(),
		conns:    make([]*kvnet.Client, len(cfg.Map.Shards)),
		probe:    newProber(cfg),
		breakers: make([]*breaker, len(cfg.Map.Shards)),
	}
	for i := range c.breakers {
		c.breakers[i] = newBreaker(cfg, i)
	}
	if cfg.Obs != nil {
		c.failovers = cfg.Obs.Counter("smartflux_cluster_failovers_total")
		c.shipped = cfg.Obs.Counter("smartflux_cluster_repl_records_total")
		c.shardOps = make([]*obs.Counter, len(cfg.Map.Shards))
		for i := range c.shardOps {
			c.shardOps[i] = cfg.Obs.Counter(fmt.Sprintf("smartflux_cluster_ops_total{shard=\"%d\"}", i))
		}
	}
	return c, nil
}

// Map returns a copy of the client's current partition map (promotions
// included).
func (c *Client) Map() *Map {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Clone()
}

// Err returns the first asynchronous failure a mirror subscription hit (nil
// when every observed mutation shipped).
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// shardFor maps a row to its owning shard.
func (c *Client) shardFor(row string) int { return c.ring.shardFor(row) }

// nextTS draws the next standalone-mode logical timestamp.
func (c *Client) nextTS() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ts++
	return c.ts
}

// conn returns shard's connection (dialing if needed), its primary address
// and the map version it belongs to.
func (c *Client) conn(shard int) (*kvnet.Client, string, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, "", 0, errors.New("cluster: client closed")
	}
	addr := c.m.Shards[shard].Primary
	if c.conns[shard] == nil {
		cl, err := kvnet.DialConfig(addr, c.cfg.Client)
		if err != nil {
			return nil, addr, c.m.Version, err
		}
		c.conns[shard] = cl
	}
	return c.conns[shard], addr, c.m.Version, nil
}

// withShard runs fn against shard's primary, fast-failing when the shard's
// circuit breaker is open, and failing over on transport-level failures or
// fencing rejections. Application errors (the op executed server-side)
// return immediately. fn must be idempotent — reads are, and writes are
// replication records that replay idempotently — because a retry after
// failover may re-execute work the dead primary already applied.
//
// Breaker accounting: any server response — success, application error, or
// a fencing rejection — is transport health and closes the breaker; only
// dial and I/O failures count against it. An ErrFenced response means the
// node is alive but this client's map is behind its timeline, so the
// replica is promoted without a liveness probe (probing would find the
// demoted node perfectly healthy and refuse the failover forever).
func (c *Client) withShard(shard int, fn func(cl *kvnet.Client) error) error {
	if shard < len(c.shardOps) {
		c.shardOps[shard].Inc()
	}
	var lastErr error
	for attempt := 0; attempt <= maxFailoverRetries; attempt++ {
		if err := c.breakerAllow(shard); err != nil {
			return err
		}
		cl, addr, ver, err := c.conn(shard)
		if err == nil {
			err = fn(cl)
			if err == nil {
				c.breakerOutcome(shard, true)
				return nil
			}
			if errors.Is(err, kvnet.ErrFenced) {
				c.breakerOutcome(shard, true)
				lastErr = err
				if !c.failoverFenced(shard, addr, ver) {
					return err
				}
				continue
			}
			if !kvnet.IsTransport(err) {
				c.breakerOutcome(shard, true)
				return err
			}
		}
		c.breakerOutcome(shard, false)
		lastErr = err
		if !c.failover(shard, addr, ver) {
			return err
		}
	}
	return lastErr
}

// breakerAllow consults shard's circuit breaker; an open breaker fast-fails
// with an ErrUnavailable-wrapping error and no network round-trip.
func (c *Client) breakerAllow(shard int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.breakers[shard].allow() {
		return fmt.Errorf("%w: shard %d circuit breaker open", kvnet.ErrUnavailable, shard)
	}
	return nil
}

// breakerOutcome feeds one operation's transport verdict to shard's breaker
// and emits a span when this failure trips it open.
func (c *Client) breakerOutcome(shard int, ok bool) {
	c.mu.Lock()
	if ok {
		c.breakers[shard].onSuccess()
		c.mu.Unlock()
		return
	}
	tripped := c.breakers[shard].onFailure()
	var sp *obs.Span
	if tripped && c.cfg.Obs.Spanning() {
		sp = c.cfg.Obs.RootSpan(fmt.Sprintf("cluster/breaker%d", c.failoverSeq), "breaker", "cluster")
		c.failoverSeq++
	}
	c.mu.Unlock()
	if sp != nil {
		sp.SetAttr("shard", fmt.Sprintf("%d", shard))
		sp.SetAttr("state", "open")
		sp.End()
	}
}

// failover decides whether a failed operation against shard should retry:
// true when the partition map has moved past the version the caller used
// (because this call promoted the replica, or a concurrent caller already
// did). The suspect primary gets ProbeRetries+1 pings with seeded backoff
// first — a transient blip heals without a promotion.
func (c *Client) failover(shard int, addr string, seenVersion int) bool {
	c.mu.Lock()
	if c.m.Version != seenVersion {
		c.mu.Unlock()
		return true // someone already moved the map; retry against it
	}
	replica := c.m.Shards[shard].Replica
	c.mu.Unlock()

	if !c.probe.dead(addr) {
		return false // primary alive: the failure was the op's, not the shard's
	}
	if replica == "" {
		return false // dead and unreplicated: nothing to promote
	}
	return c.promote(shard, addr, seenVersion)
}

// failoverFenced handles a fencing rejection: the primary answered, so it is
// alive, but it has demoted itself (or holds a higher epoch than our map
// stamps), meaning the shard's authority has moved. No liveness probe —
// the node would pass it — just promote the replica and retry there.
func (c *Client) failoverFenced(shard int, addr string, seenVersion int) bool {
	c.mu.Lock()
	if c.m.Version != seenVersion {
		c.mu.Unlock()
		return true // a concurrent caller already moved the map
	}
	replica := c.m.Shards[shard].Replica
	c.mu.Unlock()
	if replica == "" {
		return false // fenced and unreplicated: nowhere to go
	}
	return c.promote(shard, addr, seenVersion)
}

// promote is the shared failover tail: bump the map (advancing the shard's
// fencing epoch), drop the dead primary's connection, reset the shard's
// breaker (it was guarding an address we no longer talk to), emit the
// failover span and counter, and push the new map to the surviving nodes.
func (c *Client) promote(shard int, addr string, seenVersion int) bool {
	c.mu.Lock()
	if c.m.Version != seenVersion {
		c.mu.Unlock()
		return true
	}
	if err := c.m.Promote(shard); err != nil {
		c.mu.Unlock()
		return false
	}
	if c.conns[shard] != nil {
		_ = c.conns[shard].Close()
		c.conns[shard] = nil
	}
	c.breakers[shard].reset()
	newPrimary := c.m.Shards[shard].Primary
	encoded := c.m.Encode()
	var sp *obs.Span
	if c.cfg.Obs.Spanning() {
		sp = c.cfg.Obs.RootSpan(fmt.Sprintf("cluster/failover%d", c.failoverSeq), "failover", "cluster")
		c.failoverSeq++
	}
	c.mu.Unlock()

	c.failovers.Inc()
	if sp != nil {
		sp.SetAttr("shard", fmt.Sprintf("%d", shard))
		sp.SetAttr("from", addr)
		sp.SetAttr("to", newPrimary)
		sp.End()
	}
	// Best-effort: tell the surviving nodes about the new map so late
	// joiners can fetch it from any of them.
	c.pushMap(encoded)
	if c.cfg.OnFailover != nil {
		c.cfg.OnFailover(shard, addr, newPrimary)
	}
	return true
}

// pushMap offers the encoded map to every reachable primary. Failures are
// ignored: the map's home is this client; node copies are a convenience.
func (c *Client) pushMap(encoded []byte) {
	c.mu.Lock()
	shards := len(c.m.Shards)
	c.mu.Unlock()
	for s := 0; s < shards; s++ {
		if cl, _, _, err := c.conn(s); err == nil {
			_ = cl.MapSet(encoded)
		}
	}
}

// ship sends replication records to shard with failover retry, stamping
// each frame with the shard's current fencing epoch. The epoch is read
// per attempt, inside the retry loop: after a fenced failover the map has
// advanced, and the retry must carry the promoted epoch or the new primary
// would reject it as stale too.
func (c *Client) ship(shard int, recs [][]byte) error {
	err := c.withShard(shard, func(cl *kvnet.Client) error {
		c.mu.Lock()
		epoch := c.m.Shards[shard].Epoch
		c.mu.Unlock()
		return cl.ReplEpoch(epoch, recs)
	})
	if err == nil {
		c.shipped.Add(uint64(len(recs)))
	}
	return err
}

// CreateTable ensures a table exists cluster-wide: the create record goes to
// every shard (rows of the table may land anywhere) and replicates to every
// follower. Idempotent, like kvstore.Store.EnsureTable.
func (c *Client) CreateTable(name string, maxVersions int) error {
	if name == "" {
		return kvstore.ErrEmptyKey
	}
	rec := durable.EncodeCreateRecord(name, maxVersions)
	c.mu.Lock()
	shards := len(c.m.Shards)
	c.mu.Unlock()
	for s := 0; s < shards; s++ {
		if err := c.ship(s, [][]byte{rec}); err != nil {
			return err
		}
	}
	return nil
}

// Put writes a value, stamping it with the client's logical clock and
// routing it to the row's shard as a replication record.
func (c *Client) Put(table, row, column string, value []byte) error {
	if row == "" || column == "" {
		return kvstore.ErrEmptyKey
	}
	rec := durable.EncodeMutationRecord(kvstore.Mutation{
		Table: table, Row: row, Column: column, New: value,
		Timestamp: c.nextTS(), Kind: kvstore.MutationPut,
	})
	return c.ship(c.shardFor(row), [][]byte{rec})
}

// PutFloat writes an encoded float64.
func (c *Client) PutFloat(table, row, column string, v float64) error {
	return c.Put(table, row, column, kvstore.EncodeFloat(v))
}

// Delete removes a cell. Like a single store it consumes a clock tick even
// when the cell does not exist — timestamp parity with the single-store run
// is the point of the client-side clock.
func (c *Client) Delete(table, row, column string) error {
	if row == "" || column == "" {
		return kvstore.ErrEmptyKey
	}
	rec := durable.EncodeMutationRecord(kvstore.Mutation{
		Table: table, Row: row, Column: column,
		Timestamp: c.nextTS(), Kind: kvstore.MutationDelete,
	})
	return c.ship(c.shardFor(row), [][]byte{rec})
}

// Apply applies a batch of ops in order, each stamped with its own clock
// tick (matching kvstore.Table.Apply) and routed to its row's shard.
// Atomicity holds per shard, not across shards: ops for one shard land in
// one replication frame, but a multi-shard batch is several frames.
func (c *Client) Apply(table string, ops []kvstore.Op) error {
	if len(ops) == 0 {
		return nil
	}
	for _, op := range ops {
		if op.Row == "" || op.Column == "" {
			return kvstore.ErrEmptyKey
		}
	}
	c.mu.Lock()
	shards := len(c.m.Shards)
	c.mu.Unlock()
	perShard := make([][][]byte, shards)
	for _, op := range ops {
		kind := kvstore.MutationPut
		if op.Delete {
			kind = kvstore.MutationDelete
		}
		rec := durable.EncodeMutationRecord(kvstore.Mutation{
			Table: table, Row: op.Row, Column: op.Column, New: op.Value,
			Timestamp: c.nextTS(), Kind: kind,
		})
		s := c.shardFor(op.Row)
		perShard[s] = append(perShard[s], rec)
	}
	for s, recs := range perShard {
		if len(recs) == 0 {
			continue
		}
		if err := c.ship(s, recs); err != nil {
			return err
		}
	}
	return nil
}

// Get reads the latest value of a cell from its shard.
func (c *Client) Get(table, row, column string) (value []byte, found bool, err error) {
	err = c.withShard(c.shardFor(row), func(cl *kvnet.Client) error {
		value, found, err = cl.Get(table, row, column)
		return err
	})
	return value, found, err
}

// Mirror attaches the client to a live local store: existing state is
// synced to the cluster (create records plus every retained version, oldest
// first), then every subsequent local mutation ships as it happens, carrying
// its local timestamp. The local store stays the engine's source of truth —
// the cluster becomes a replicated, sharded copy whose merged dump is
// bit-identical to it. Ship failures after attach surface through Err.
func (c *Client) Mirror(s *kvstore.Store) error {
	for _, name := range s.TableNames() {
		t, err := s.Table(name)
		if err != nil {
			return err
		}
		if err := c.mirrorTable(t); err != nil {
			return err
		}
	}
	s.OnTableCreate(func(t *kvstore.Table) {
		if err := c.mirrorTable(t); err != nil {
			c.recordErr(err)
		}
	})
	return nil
}

// mirrorTable broadcasts a table's create record, syncs its current
// contents, and subscribes to its future mutations.
func (c *Client) mirrorTable(t *kvstore.Table) error {
	if err := c.CreateTable(t.Name(), t.MaxVersions()); err != nil {
		return err
	}
	err := t.History(func(cell []kvstore.Mutation) error {
		recs := make([][]byte, len(cell))
		for i, m := range cell {
			recs[i] = durable.EncodeMutationRecord(m)
		}
		return c.ship(c.shardFor(cell[0].Row), recs)
	})
	if err != nil {
		return err
	}
	t.Subscribe(kvstore.ObserverFunc(func(m kvstore.Mutation) {
		rec := durable.EncodeMutationRecord(m)
		if err := c.ship(c.shardFor(m.Row), [][]byte{rec}); err != nil {
			c.recordErr(err)
		}
	}))
	return nil
}

// recordErr retains the first asynchronous ship failure for Err.
func (c *Client) recordErr(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
	}
}

// Close closes every shard connection. Idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := c.conns
	c.conns = make([]*kvnet.Client, len(conns))
	c.mu.Unlock()
	for _, cl := range conns {
		if cl != nil {
			_ = cl.Close()
		}
	}
	return nil
}
