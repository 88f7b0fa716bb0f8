package kvnet

import (
	"bufio"
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"smartflux/internal/kvstore"
	"smartflux/internal/kvstore/wire"
	"smartflux/internal/obs"
)

// clientBufSize sizes the response-side buffered reader.
const clientBufSize = 64 << 10

// ClientConfig configures a client connection. The zero value matches the
// historical behaviour: no deadlines, no retries, no reconnection.
type ClientConfig struct {
	// DialTimeout bounds connection establishment; zero waits forever.
	DialTimeout time.Duration
	// ReadTimeout bounds the wait for each response frame of a call; zero
	// waits forever. A hung or stalled server surfaces as
	// an ErrTimeout-wrapped kvnet recv error instead of blocking the
	// calling workflow step indefinitely.
	ReadTimeout time.Duration
	// WriteTimeout bounds each request write; zero waits forever.
	WriteTimeout time.Duration
	// MaxRetries bounds the extra attempts a failed op gets; it is the only
	// retry cap. Every retry rides a freshly dialed connection. Reads retry
	// as-is; mutating ops retry under their frame's sequence number so the
	// server applies them exactly once.
	MaxRetries int
	// RetryBackoff is the base delay before a retry, doubling each attempt
	// (capped at 64×) with seeded jitter of up to half the delay. Zero
	// retries immediately.
	RetryBackoff time.Duration
	// RetrySeed seeds the jitter source; retries are deterministic given
	// the seed and the failure sequence.
	RetrySeed int64
	// Dial overrides connection establishment (e.g. to interpose
	// internal/fault's Dialer); nil dials TCP with DialTimeout.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// Obs, when non-nil, counts I/O timeouts on
	// smartflux_kvnet_client_timeouts_total{kind="read"|"write"}, retries
	// on smartflux_kvnet_client_retries_total, reconnections on
	// smartflux_kvnet_client_reconnects_total and exact on-wire bytes on
	// smartflux_kvnet_client_bytes_total{dir="sent"|"recv"}.
	Obs *obs.Observer
}

// Client is a lockstep TCP client for a kvnet server. A Client is safe for
// concurrent use, but it runs one call at a time: a call holds the client's
// mutex for its whole round trip and, on the caller's goroutine, writes its
// one request frame and reads responses until the final one carrying its
// sequence number. Concurrent callers take turns on the one connection, and
// a Client starts no goroutine. With retries configured it transparently
// redials after transport failures and re-sends the call under its original
// sequence number.
type Client struct {
	cfg  ClientConfig
	addr string
	id   uint64 // idempotency identity, stable across reconnects

	// root anchors this client's round-trip spans under one unemitted
	// net/c<n> ID; nil when the observer is not tracing spans.
	root *obs.Span

	// mu serialises calls: a call holds it for its whole round trip,
	// retries and backoff included, and the fields below are the call's.
	mu      sync.Mutex
	seq     uint64 // last assigned frame sequence number
	rtSeq   uint64 // numbers round-trip spans under root
	dialSeq int    // numbers dial spans under root
	jitter  *mrand.Rand
	greet   bool          // conn has not yet carried the hello preamble
	br      *bufio.Reader // reads conn
	buf     wire.Buffer   // one call's request frame, then each response frame

	// live guards the connection and the closed flag against Close, which
	// must sever the connection of a call that holds mu. Calls write conn
	// under both locks, so a call reads it under mu alone.
	live    sync.Mutex
	conn    net.Conn // nil after a failed try, until the next try redials
	closed  bool
	closeCh chan struct{} // closed once by Close, ending a backoff

	readTimeouts  *obs.Counter // nil when no observer is configured
	writeTimeouts *obs.Counter
	retries       *obs.Counter
	reconnects    *obs.Counter
	bytesSent     *obs.Counter
	bytesRecv     *obs.Counter
}

// reply is what a call brings back from its response frames.
type reply struct {
	value  []byte
	found  bool
	cells  []kvstore.Cell // scan result, reassembled chunk by chunk
	clock  uint64         // OpStatus
	cursor uint64         // OpStatus
	crc    uint32         // OpStatus
}

// clientIDCounter is the fallback identity source when crypto/rand fails.
var clientIDCounter atomic.Uint64

// clientSpanSeq numbers span-tracing clients process-wide so their root span
// IDs (net/c0, net/c1, ...) stay distinct when several clients share sinks.
var clientSpanSeq atomic.Uint64

// newClientID draws a non-zero 64-bit client identity. Identities only need
// to be unique among clients of one server; randomness keeps identities from
// colliding across processes without coordination.
func newClientID() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		var id uint64
		for _, x := range b {
			id = id<<8 | uint64(x)
		}
		if id != 0 {
			return id
		}
	}
	return clientIDCounter.Add(1)
}

// Dial connects to a kvnet server with no I/O deadlines and no retries.
func Dial(addr string) (*Client, error) {
	return DialConfig(addr, ClientConfig{})
}

// DialConfig connects to a kvnet server with the given configuration.
func DialConfig(addr string, cfg ClientConfig) (*Client, error) {
	c := &Client{
		cfg:     cfg,
		addr:    addr,
		id:      newClientID(),
		closeCh: make(chan struct{}),
		jitter:  mrand.New(mrand.NewSource(cfg.RetrySeed)),
	}
	if cfg.Obs != nil {
		c.readTimeouts = cfg.Obs.Counter(`smartflux_kvnet_client_timeouts_total{kind="read"}`)
		c.writeTimeouts = cfg.Obs.Counter(`smartflux_kvnet_client_timeouts_total{kind="write"}`)
		c.retries = cfg.Obs.Counter("smartflux_kvnet_client_retries_total")
		c.reconnects = cfg.Obs.Counter("smartflux_kvnet_client_reconnects_total")
		c.bytesSent = cfg.Obs.Counter(`smartflux_kvnet_client_bytes_total{dir="sent"}`)
		c.bytesRecv = cfg.Obs.Counter(`smartflux_kvnet_client_bytes_total{dir="recv"}`)
	}
	if cfg.Obs.Spanning() {
		idx := clientSpanSeq.Add(1) - 1
		c.root = cfg.Obs.RootSpan("net/c"+strconv.FormatUint(idx, 10), "client", "net")
	}
	// Eager first dial so an unreachable server fails construction, as it
	// always has.
	conn, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.use(conn)
	return c, nil
}

// dial opens one connection under a dialK span, using the configured dial
// function.
func (c *Client) dial() (net.Conn, error) {
	var sp *obs.Span
	if c.root != nil {
		sp = c.root.ChildKey("dial"+strconv.Itoa(c.dialSeq), "dial", "net")
		c.dialSeq++
	}
	var conn net.Conn
	var err error
	switch {
	case c.cfg.Dial != nil:
		conn, err = c.cfg.Dial(c.addr, c.cfg.DialTimeout)
	case c.cfg.DialTimeout > 0:
		conn, err = net.DialTimeout("tcp", c.addr, c.cfg.DialTimeout)
	default:
		conn, err = net.Dial("tcp", c.addr)
	}
	sp.EndErr(err)
	if err != nil {
		return nil, &opError{stage: "dial", err: err}
	}
	return conn, nil
}

// use makes a freshly dialed conn the live connection, whose first write
// carries the hello preamble. False means Close got there first: conn is
// closed instead.
func (c *Client) use(conn net.Conn) bool {
	c.live.Lock()
	closed := c.closed
	if !closed {
		c.conn = conn
	}
	c.live.Unlock()
	if closed {
		_ = conn.Close()
		return false
	}
	c.greet = true
	c.br = bufio.NewReaderSize(conn, clientBufSize)
	return true
}

// drop tears down the connection a failed try left in an unknown state; the
// next try redials.
func (c *Client) drop() {
	_ = c.conn.Close() // the try's error is the one to report
	c.live.Lock()
	c.conn = nil
	c.live.Unlock()
}

// isClosed reports whether Close has begun.
func (c *Client) isClosed() bool {
	c.live.Lock()
	defer c.live.Unlock()
	return c.closed
}

// Close closes the client. It is idempotent, safe to call concurrently with
// in-flight operations — those fail promptly with ErrClosed instead of a
// raw transport error — and returns nil on repeat calls. It returns once no
// call is running.
func (c *Client) Close() error {
	c.live.Lock()
	already := c.closed
	c.closed = true
	conn := c.conn
	c.live.Unlock()
	if !already {
		close(c.closeCh) // ends a call's backoff
		if conn != nil {
			_ = conn.Close() // ends a call's read or write
		}
	}
	// Wait out the call in flight, if any.
	c.mu.Lock()
	c.mu.Unlock()
	return nil
}

// opError wraps a transport failure with its sentinel classification. Both
// the sentinel (ErrClosed / ErrTimeout) and the underlying error stay
// reachable through errors.Is / errors.As.
type opError struct {
	stage string // "dial", "send", "recv"
	kind  error  // ErrClosed or ErrTimeout; nil for plain transport errors
	err   error
}

func (e *opError) Error() string {
	switch {
	case e.kind != nil && e.err != nil:
		return fmt.Sprintf("kvnet %s: %v: %v", e.stage, e.kind, e.err)
	case e.kind != nil:
		return fmt.Sprintf("kvnet %s: %v", e.stage, e.kind)
	default:
		return fmt.Sprintf("kvnet %s: %v", e.stage, e.err)
	}
}

func (e *opError) Unwrap() []error {
	switch {
	case e.kind != nil && e.err != nil:
		return []error{e.kind, e.err}
	case e.kind != nil:
		return []error{e.kind}
	default:
		return []error{e.err}
	}
}

// IsTransport reports whether err is a kvnet transport-level failure (dial,
// send or recv — the op may or may not have executed server-side) rather
// than an application error returned by the server (the op executed). The
// cluster layer uses it to decide whether a failure is worth a health probe.
func IsTransport(err error) bool {
	var oe *opError
	return errors.As(err, &oe)
}

// wrapIOErr classifies one send/recv failure: concurrent Close becomes
// ErrClosed, net timeouts become ErrTimeout (counted), everything else
// passes through wrapped with its stage.
func (c *Client) wrapIOErr(stage string, err error, timeouts *obs.Counter) error {
	if c.isClosed() {
		return &opError{stage: stage, kind: ErrClosed, err: err}
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		timeouts.Inc() // nil-safe no-op when uninstrumented
		return &opError{stage: stage, kind: ErrTimeout, err: err}
	}
	return &opError{stage: stage, err: err}
}

// RetryDelay computes the backoff delay of every network-side retry loop —
// this client's retries and the cluster prober's ping bursts: base
// doubling per 0-based attempt (capped at 64×) plus jitter of up to half the
// delay drawn from the caller's seeded source, under the caller's lock. The
// engine's step retries keep a copy of the formula (engine.backoff): that
// package cannot import this one.
func RetryDelay(base time.Duration, attempt int, jitter *mrand.Rand) time.Duration {
	if base <= 0 {
		return 0
	}
	if attempt > 6 {
		attempt = 6
	}
	d := base << uint(attempt)
	return d + time.Duration(jitter.Int63n(int64(d)/2+1))
}

// ioDeadline is the one place I/O deadlines are computed from configured
// timeouts: the absolute deadline for a timeout d, or the zero time (no
// deadline) when d is unset.
func ioDeadline(d time.Duration) time.Time {
	if d <= 0 {
		return time.Time{}
	}
	return time.Now().Add(d)
}

// do runs one call. It assigns the call's seq once, then tries the round
// trip until it succeeds, fails with an application error (the op
// executed), fails with ErrClosed or runs out of retries, backing off
// between tries. Every try re-sends the same seq, so the server's dedup
// slot keeps a retried mutation exactly-once, and the next seq is assigned
// only after the last try, so the server can refuse any older copy.
func (c *Client) do(req wire.Request) (reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.isClosed() {
		return reply{}, &opError{stage: "dial", kind: ErrClosed}
	}
	var sp *obs.Span
	if c.root != nil {
		sp = c.root.ChildKey("rt"+strconv.FormatUint(c.rtSeq, 10), wire.OpName(req.Op), "net")
		c.rtSeq++
		if req.Table != "" {
			sp.SetAttr("table", req.Table)
		}
	}
	c.seq++
	req.Seq = c.seq
	r, bytes, err := c.try(&req)
	tries := 1
	for ; IsTransport(err) && !errors.Is(err, ErrClosed) && tries <= c.cfg.MaxRetries; tries++ {
		c.retries.Inc() // nil-safe no-op when uninstrumented
		if !c.sleepBackoff(tries - 1) {
			err = &opError{stage: "send", kind: ErrClosed}
			break
		}
		r, bytes, err = c.try(&req)
	}
	if sp != nil {
		sp.SetRetries(tries - 1)
		if !IsTransport(err) {
			sp.SetBytes(bytes)
		}
		sp.EndErr(err)
	}
	return r, err
}

// sleepBackoff sleeps out the retry delay, interruptible by Close; false
// means the client closed.
func (c *Client) sleepBackoff(attempt int) bool {
	d := RetryDelay(c.cfg.RetryBackoff, attempt, c.jitter)
	if d <= 0 {
		return !c.isClosed()
	}
	select {
	case <-time.After(d):
		return true
	case <-c.closeCh:
		return false
	}
}

// try makes one attempt at req: it redials if the last try dropped the
// connection, writes the hello preamble on a fresh connection and then req's
// frame, and reads frames until the final one carrying req.Seq. It returns
// the reply, the call's exact on-wire bytes (its request frame and response
// frames) and, on failure, a transport error (the connection is dropped) or
// the server's application error.
func (c *Client) try(req *wire.Request) (reply, int64, error) {
	conn := c.conn
	if conn == nil {
		var err error
		if conn, err = c.dial(); err != nil {
			return reply{}, 0, err
		}
		if !c.use(conn) {
			return reply{}, 0, &opError{stage: "send", kind: ErrClosed}
		}
		c.reconnects.Inc() // nil-safe no-op when uninstrumented
	}
	buf := &c.buf
	buf.Reset()
	if c.greet {
		wire.AppendHello(buf, c.id)
	}
	start := buf.Len()
	wire.AppendRequest(buf, req)
	bytes := int64(buf.Len() - start)
	_ = conn.SetWriteDeadline(ioDeadline(c.cfg.WriteTimeout))
	n, err := conn.Write(buf.Bytes())
	if n > 0 {
		c.bytesSent.Add(uint64(n)) // nil-safe no-op when uninstrumented
	}
	if err != nil {
		c.drop()
		return reply{}, 0, c.wrapIOErr("send", err, c.writeTimeouts)
	}
	c.greet = false
	var r reply
	for {
		_ = conn.SetReadDeadline(ioDeadline(c.cfg.ReadTimeout))
		h, payload, err := wire.ReadFrame(c.br, buf)
		var resp wire.Response
		if err == nil {
			c.bytesRecv.Add(uint64(wire.HeaderSize + len(payload))) // nil-safe
			resp, err = wire.DecodeResponse(h, payload)
		}
		if err != nil {
			c.drop()
			return reply{}, 0, c.wrapIOErr("recv", err, c.readTimeouts)
		}
		if resp.Seq != req.Seq {
			continue // not this call's: nothing else is in flight to claim it
		}
		bytes += int64(wire.HeaderSize + len(payload))
		if resp.Op == wire.OpScan && resp.Err == "" {
			r.cells = appendCells(r.cells, resp.Cells)
		}
		if !resp.Chunk {
			return r, bytes, r.finish(req.Op, &resp)
		}
	}
}

// appendCells converts one wire scan chunk into store cells, copying the
// values (which alias the reader's frame buffer) into one arena allocation
// per chunk.
func appendCells(dst []kvstore.Cell, src []wire.Cell) []kvstore.Cell {
	if len(src) == 0 {
		return dst
	}
	var total int
	for i := range src {
		total += len(src[i].Value)
	}
	arena := make([]byte, 0, total)
	for i := range src {
		off := len(arena)
		arena = append(arena, src[i].Value...)
		dst = append(dst, kvstore.Cell{
			Row:     src[i].Row,
			Column:  src[i].Column,
			Version: kvstore.Version{Timestamp: src[i].Timestamp, Value: arena[off:len(arena):len(arena)]},
		})
	}
	return dst
}

// finish extracts op's result from its final response frame. An
// application error means the op executed server-side.
func (r *reply) finish(op byte, resp *wire.Response) error {
	if resp.Err != "" {
		if resp.Flags&wire.FlagFenced != 0 {
			// Rehydrate the fencing sentinel the server flattened to a
			// string: callers match with errors.Is(err, ErrFenced).
			return fmt.Errorf("%w: %s", ErrFenced, resp.Err)
		}
		return errors.New(resp.Err)
	}
	switch op {
	case wire.OpGet:
		r.found = resp.Found
		if resp.Found {
			// Copy: resp.Value aliases the reader's frame buffer.
			r.value = append([]byte(nil), resp.Value...)
		}
	case wire.OpStatus:
		r.clock, r.cursor, r.crc = resp.Clock, resp.Cursor, resp.Crc
	case wire.OpMapGet:
		// Copy: resp.Map aliases the reader's frame buffer.
		r.value = append([]byte(nil), resp.Map...)
	}
	return nil
}

// CreateTable ensures a table exists on the server.
func (c *Client) CreateTable(name string, maxVersions int) error {
	_, err := c.do(wire.Request{Op: wire.OpCreateTable, Table: name, MaxVers: maxVersions})
	return err
}

// Put writes a value.
func (c *Client) Put(table, row, column string, value []byte) error {
	_, err := c.do(wire.Request{Op: wire.OpPut, Table: table, Row: row, Column: column, Value: value})
	return err
}

// PutFloat writes an encoded float64.
func (c *Client) PutFloat(table, row, column string, v float64) error {
	return c.Put(table, row, column, kvstore.EncodeFloat(v))
}

// Get reads the latest value of a cell.
func (c *Client) Get(table, row, column string) ([]byte, bool, error) {
	r, err := c.do(wire.Request{Op: wire.OpGet, Table: table, Row: row, Column: column})
	if err != nil {
		return nil, false, err
	}
	return r.value, r.found, nil
}

// GetFloat reads a float64-encoded cell.
func (c *Client) GetFloat(table, row, column string) (float64, bool, error) {
	raw, found, err := c.Get(table, row, column)
	if err != nil || !found {
		return 0, found, err
	}
	v, err := kvstore.DecodeFloat(raw)
	if err != nil {
		return 0, false, err
	}
	return v, true, nil
}

// Delete removes a cell.
func (c *Client) Delete(table, row, column string) error {
	_, err := c.do(wire.Request{Op: wire.OpDelete, Table: table, Row: row, Column: column})
	return err
}

// Scan returns matching cells, reassembled in key order from the server's
// streamed chunks.
func (c *Client) Scan(table string, opts kvstore.ScanOptions) ([]kvstore.Cell, error) {
	r, err := c.do(wire.Request{Op: wire.OpScan, Table: table, Scan: opts})
	if err != nil {
		return nil, err
	}
	return r.cells, nil
}

// Apply applies a batch atomically on the server.
func (c *Client) Apply(table string, ops []kvstore.Op) error {
	_, err := c.do(wire.Request{Op: wire.OpApply, Table: table, Ops: ops})
	return err
}

// Ping round-trips an empty frame — the health checker's liveness probe.
func (c *Client) Ping() error {
	_, err := c.do(wire.Request{Op: wire.OpPing})
	return err
}

// Status reports the server's replication status: its store clock, its
// replication-log cursor (records appended so far) and the rolling checksum
// of the log prefix up to that cursor.
func (c *Client) Status() (clock, cursor uint64, crc uint32, err error) {
	r, err := c.do(wire.Request{Op: wire.OpStatus})
	if err != nil {
		return 0, 0, 0, err
	}
	return r.clock, r.cursor, r.crc, nil
}

// ReplEpoch ships a batch of replication records stamped with the sender's
// shard epoch. A node holding a higher epoch rejects the batch with an
// ErrFenced-matchable error — the wire half of epoch fencing (DESIGN.md §8).
// Records carry explicit timestamps and apply idempotently, so retried
// batches are safe.
func (c *Client) ReplEpoch(epoch uint64, records [][]byte) error {
	_, err := c.do(wire.Request{Op: wire.OpRepl, Epoch: epoch, Records: records})
	return err
}

// MapGet fetches the server's current encoded partition map (nil when the
// node has none yet).
func (c *Client) MapGet() ([]byte, error) {
	r, err := c.do(wire.Request{Op: wire.OpMapGet})
	if err != nil {
		return nil, err
	}
	return r.value, nil
}

// MapSet replaces the server's partition map with the encoded m.
func (c *Client) MapSet(m []byte) error {
	_, err := c.do(wire.Request{Op: wire.OpMapSet, Map: m})
	return err
}

// ScanVersions returns every retained version of every matching cell —
// newest first per cell, cells in key order, one snapshot of the table —
// streamed back in chunks like a plain Scan. This is the cluster dump path.
func (c *Client) ScanVersions(table string, opts kvstore.ScanOptions) ([]kvstore.Cell, error) {
	r, err := c.do(wire.Request{Op: wire.OpScan, Flags: wire.FlagVersions, Table: table, Scan: opts})
	if err != nil {
		return nil, err
	}
	return r.cells, nil
}
