package fault

import (
	"net"
	"time"
)

// Conn wraps a net.Conn with fault injection on every Read and Write. The
// injector is consulted once per call with op "read" or "write":
//
//   - Latency delays the call.
//   - An injected error fails the call before any bytes move, so the wire
//     never carries a partial frame from an injected (non-disconnect) fault.
//   - A disconnect closes the underlying connection and fails the call; the
//     peer observes an abrupt hang-up, possibly mid-frame.
//   - Under a Blackhole policy, writes report full success without
//     delivering anything; reads starve on the underlying connection and
//     surface through read deadlines, exactly like a hung peer.
//
// Partition checks are direction-aware (partition.go): a write carries
// traffic local→remote, a read remote→local. A fully partitioned endpoint
// tears the transport down — the wire-level face of a dead shard — while a
// one-way or link partition fails only the blocked direction's operations,
// leaving the connection open, exactly like a network path silently eating
// packets one way.
type Conn struct {
	net.Conn
	inj *Injector
	// local and remote are the shard identities of this connection's two
	// ends, as far as the wrapper knows them: a dialed connection knows its
	// remote (the dialed address) and, through DialerFrom, optionally its
	// local source; an accepted connection knows its local (the listener's
	// bound address) but not the client's identity. Empty opts that end out
	// of partition matching.
	local, remote string
}

// WrapConnFrom interposes inj on a dialed connection c, counting it against
// its remote address and, when from is not empty, the local end's shard
// identity, so the connection also matches outbound and link partitions of
// its source — the connection-level half of DialerFrom. A nil injector
// returns c unchanged.
func WrapConnFrom(c net.Conn, inj *Injector, from string) net.Conn {
	if inj == nil {
		return c
	}
	return &Conn{Conn: c, inj: inj, local: from, remote: c.RemoteAddr().String()}
}

// WrapConnAddr is WrapConnFrom for the accepting side, with an explicit shard
// address to count the connection against — the listener uses its own bound
// address, since an accepted connection's remote is the client's ephemeral
// port, not a shard identity.
func WrapConnAddr(c net.Conn, inj *Injector, addr string) net.Conn {
	if inj == nil {
		return c
	}
	return &Conn{Conn: c, inj: inj, local: addr}
}

// intercept evaluates one I/O operation. It reports whether the caller
// should swallow the call (blackholed write) and the error to fail with.
func (c *Conn) intercept(op string) (swallow bool, err error) {
	d := c.inj.Decide(op)
	// Partition checks run after Decide so an operation that itself trips a
	// seeded shard kill already observes the partition. A fully partitioned
	// endpoint kills the transport; a one-way or link cut fails only the
	// blocked direction and keeps the connection alive.
	if c.inj.fullyPartitioned(c.local) || c.inj.fullyPartitioned(c.remote) {
		_ = c.Conn.Close()
		return false, ErrPartitioned
	}
	src, dst := c.local, c.remote
	if op == "read" {
		src, dst = c.remote, c.local
	}
	if c.inj.blocked(src, dst) {
		return false, ErrPartitioned
	}
	if err := d.apply(); err != nil {
		if d.Disconnect {
			_ = c.Conn.Close() // tear the transport down, surface the cause
			return false, err
		}
		if c.inj.blackhole() && op == "write" {
			return true, nil
		}
		return false, err
	}
	return false, nil
}

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) {
	if _, err := c.intercept("read"); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

// Write implements net.Conn.
func (c *Conn) Write(p []byte) (int, error) {
	swallow, err := c.intercept("write")
	if err != nil {
		return 0, err
	}
	if swallow {
		return len(p), nil // blackhole: accepted, never delivered
	}
	return c.Conn.Write(p)
}

// blackhole reports whether the policy blackholes traffic.
func (i *Injector) blackhole() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.p.Blackhole
}

// Listener wraps a net.Listener so every accepted connection carries the
// injector. Use with kvnet's Server.ServeListener to chaos-test the server
// side of the wire.
type Listener struct {
	net.Listener
	inj *Injector
}

// WrapListener interposes inj on every connection ln accepts. A nil
// injector returns ln unchanged.
func WrapListener(ln net.Listener, inj *Injector) net.Listener {
	if inj == nil {
		return ln
	}
	return &Listener{Listener: ln, inj: inj}
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	// Accepted connections count against the listener's own address: a
	// partition of this server severs every connection it serves.
	return WrapConnAddr(c, l.inj, l.Listener.Addr().String()), nil
}

// Dialer returns a dial function that wraps every established connection
// with the injector — the client-side counterpart of WrapListener, shaped
// for kvnet's ClientConfig.Dial so reconnects keep flowing through the
// fault layer. Dials are anonymous: the resulting connections match
// partitions of the dialed address but carry no source identity.
func Dialer(inj *Injector) func(addr string, timeout time.Duration) (net.Conn, error) {
	return dialer(inj, "")
}

// DialerFrom is Dialer with a source identity: every connection it
// establishes is tagged as originating at from, so it also matches
// PartitionOutbound(from) and PartitionLink(from, addr) — the hook a
// cluster node's replication link uses so one-way partitions of the node
// cut its outgoing ships.
func DialerFrom(inj *Injector, from string) func(addr string, timeout time.Duration) (net.Conn, error) {
	return dialer(inj, from)
}

// dialer is the shared body of Dialer and DialerFrom.
func dialer(inj *Injector, from string) func(addr string, timeout time.Duration) (net.Conn, error) {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		if inj != nil && (inj.blocked(from, addr) || inj.fullyPartitioned(from)) {
			return nil, ErrPartitioned
		}
		var c net.Conn
		var err error
		if timeout > 0 {
			c, err = net.DialTimeout("tcp", addr, timeout)
		} else {
			c, err = net.Dial("tcp", addr)
		}
		if err != nil {
			return nil, err
		}
		return WrapConnFrom(c, inj, from), nil
	}
}
