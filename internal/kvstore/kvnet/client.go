package kvnet

import (
	"bufio"
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
	"net"
	"runtime"
	"sort"
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

// maxInflightFrames bounds how many frames one client keeps awaiting
// responses for. It must stay well below the server's dedupWindowSize so a
// retried mutating frame's sequence number can never have been evicted.
const maxInflightFrames = 512

// ClientConfig configures a client connection. The zero value matches the
// historical behaviour: no deadlines, no retries, no reconnection.
type ClientConfig struct {
	// DialTimeout bounds connection establishment; zero waits forever.
	DialTimeout time.Duration
	// ReadTimeout bounds the wait for the next response while requests are
	// in flight; zero waits forever. A hung or stalled server surfaces as
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

// Client is a pipelined TCP client for a kvnet server. A Client is safe for
// concurrent use: ops from any number of goroutines share one connection,
// each op is exactly one request frame, a writer goroutine coalesces pending
// frames into single writes and a reader goroutine demultiplexes responses
// by sequence number, so N in-flight ops cost one socket and far fewer than
// N syscalls. With retries configured it transparently reconnects after
// transport failures and re-sends in-flight frames under their original
// sequence numbers.
type Client struct {
	cfg  ClientConfig
	addr string
	id   uint64 // idempotency identity, stable across reconnects

	// root anchors this client's round-trip spans under one unemitted
	// net/c<n> ID; nil when the observer is not tracing spans.
	root *obs.Span

	// mu guards the op queue and connection state shared between op
	// submitters, the writer (connLoop) and the reader (readLoop).
	mu       sync.Mutex
	closed   bool
	seq      uint64 // last assigned frame sequence number
	rtSeq    uint64 // numbers round-trip spans under root
	pending  []*call
	inflight map[uint64]*call
	conn     net.Conn // live epoch's conn, so Close can sever it

	// overlap latches once two ops have ever been outstanding at the same
	// time. Strictly sequential callers never set it, which keeps the
	// writer's group-commit yield off their hot path.
	overlap atomic.Bool

	work    chan struct{} // submission kick, capacity 1
	closeCh chan struct{} // closed once by Close
	done    chan struct{} // closed when connLoop exits

	// Supervisor-only state (touched exclusively by connLoop).
	jitter   *mrand.Rand
	everConn bool // a connection has carried an epoch before
	dialSeq  int  // numbers dial spans under root

	readTimeouts  *obs.Counter // nil when no observer is configured
	writeTimeouts *obs.Counter
	retries       *obs.Counter
	reconnects    *obs.Counter
	bytesSent     *obs.Counter
	bytesRecv     *obs.Counter
}

// call is one public-API operation in flight, and the one wire frame that
// carries it: its request, its span and its completion state. A call is the
// unit of sequencing, sending and retrying: its seq (req.Seq) is assigned
// once, at first send, and survives reconnects so the server's dedup window
// keeps retried mutations exactly-once.
type call struct {
	req       wire.Request
	sp        *obs.Span
	done      chan struct{}
	err       error
	attempts  int   // failed epochs charged so far
	reqBytes  int64 // exact on-wire request bytes
	respBytes int64 // exact on-wire response bytes, reset on retry
	value     []byte
	found     bool
	cells     []kvstore.Cell // scan result, reassembled chunk by chunk
	clock     uint64         // OpStatus
	cursor    uint64         // OpStatus
	crc       uint32         // OpStatus
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
		cfg:      cfg,
		addr:     addr,
		id:       newClientID(),
		inflight: make(map[uint64]*call),
		work:     make(chan struct{}, 1),
		closeCh:  make(chan struct{}),
		done:     make(chan struct{}),
		jitter:   mrand.New(mrand.NewSource(cfg.RetrySeed)),
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
	var dialSp *obs.Span
	if c.root != nil {
		dialSp = c.root.ChildKey("dial0", "dial", "net")
		c.dialSeq = 1
	}
	conn, err := c.dialConn()
	dialSp.EndErr(err)
	if err != nil {
		return nil, &opError{stage: "dial", err: err}
	}
	go c.connLoop(conn)
	return c, nil
}

// dialConn establishes one connection using the configured dial function.
func (c *Client) dialConn() (net.Conn, error) {
	if c.cfg.Dial != nil {
		return c.cfg.Dial(c.addr, c.cfg.DialTimeout)
	}
	if c.cfg.DialTimeout > 0 {
		return net.DialTimeout("tcp", c.addr, c.cfg.DialTimeout)
	}
	return net.Dial("tcp", c.addr)
}

// isClosed reports whether Close has begun.
func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// kick nudges the writer without blocking; the capacity-1 channel makes
// repeated kicks idempotent.
func (c *Client) kick() {
	select {
	case c.work <- struct{}{}:
	default:
	}
}

// Close closes the client. It is idempotent, safe to call concurrently with
// in-flight operations — those fail promptly with ErrClosed instead of a
// raw transport error — and returns nil on repeat calls.
func (c *Client) Close() error {
	c.mu.Lock()
	already := c.closed
	c.closed = true
	conn := c.conn
	c.mu.Unlock()
	if !already {
		close(c.closeCh)
		if conn != nil {
			_ = conn.Close() // unblocks the epoch's reader and writer
		}
	}
	<-c.done
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
// this client's reconnects and the cluster prober's ping bursts: base
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

// do submits one op, waits for its completion and returns the finished
// call. The heavy lifting happens on the connLoop/readLoop goroutines.
func (c *Client) do(req wire.Request) (*call, error) {
	cl := &call{req: req, done: make(chan struct{})}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, &opError{stage: "dial", kind: ErrClosed}
	}
	if c.root != nil {
		cl.sp = c.root.ChildKey("rt"+strconv.FormatUint(c.rtSeq, 10), wire.OpName(req.Op), "net")
		c.rtSeq++
		if req.Table != "" {
			cl.sp.SetAttr("table", req.Table)
		}
	}
	if !c.overlap.Load() && (len(c.pending) > 0 || len(c.inflight) > 0) {
		c.overlap.Store(true)
	}
	c.pending = append(c.pending, cl)
	c.mu.Unlock()
	c.kick()
	<-cl.done
	return cl, cl.err
}

// connLoop is the client's connection supervisor: it owns dialing, backoff
// and one connection "epoch" at a time, charging every epoch failure to the
// calls it stranded and re-sending survivors on the next connection.
func (c *Client) connLoop(conn net.Conn) {
	defer close(c.done)
	for {
		if conn == nil {
			if !c.waitWork() {
				break
			}
			if attempt := c.retryAttempt(); attempt >= 0 {
				if !c.sleepBackoff(attempt) {
					break
				}
			}
			var dialSp *obs.Span
			if c.root != nil {
				dialSp = c.root.ChildKey("dial"+strconv.Itoa(c.dialSeq), "dial", "net")
				c.dialSeq++
			}
			var err error
			conn, err = c.dialConn()
			dialSp.EndErr(err)
			if err != nil {
				c.chargeFailure(&opError{stage: "dial", err: err}, true)
				continue
			}
		}
		if c.isClosed() {
			_ = conn.Close()
			break
		}
		if c.everConn {
			c.reconnects.Inc() // nil-safe no-op when uninstrumented
		}
		c.everConn = true
		err := c.runEpoch(conn)
		conn = nil
		if c.isClosed() {
			break
		}
		c.chargeFailure(err, false)
	}
	c.shutdown()
}

// waitWork blocks until an op is pending; false means the client closed.
func (c *Client) waitWork() bool {
	for {
		c.mu.Lock()
		closed, has := c.closed, len(c.pending) > 0
		c.mu.Unlock()
		if closed {
			return false
		}
		if has {
			return true
		}
		select {
		case <-c.work:
		case <-c.closeCh:
			return false
		}
	}
}

// retryAttempt returns the 0-based backoff attempt for the oldest pending
// retried call, or -1 when every pending call is fresh (no backoff due).
func (c *Client) retryAttempt() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cl := range c.pending {
		if cl.attempts > 0 {
			return cl.attempts - 1
		}
	}
	return -1
}

// sleepBackoff sleeps out the retry delay, interruptible by Close; false
// means the client closed.
func (c *Client) sleepBackoff(attempt int) bool {
	d := RetryDelay(c.cfg.RetryBackoff, attempt, c.jitter)
	if d <= 0 {
		return !c.isClosed()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.closeCh:
		return false
	}
}

// chargeFailure charges a connection failure to the calls it stranded —
// those in flight on the dead epoch, or (for a dial failure) everything
// pending. Calls past MaxRetries fail with err; survivors requeue at the
// front of pending, in sequence order, keeping their assigned seqs so
// retried mutations stay exactly-once server-side.
func (c *Client) chargeFailure(err error, dialFailure bool) {
	closing := errors.Is(err, ErrClosed)
	c.mu.Lock()
	var affected []*call
	if dialFailure {
		affected = c.pending
		c.pending = nil
	} else {
		affected = c.takeInflight()
	}
	var requeue, failed []*call
	for _, cl := range affected {
		cl.attempts++
		cl.cells = nil // discard partial scan chunks from the dead epoch
		cl.respBytes = 0
		if closing || cl.attempts > c.cfg.MaxRetries {
			failed = append(failed, cl)
		} else {
			requeue = append(requeue, cl)
		}
	}
	c.pending = append(requeue, c.pending...)
	c.mu.Unlock()
	for range requeue {
		c.retries.Inc() // nil-safe no-op when uninstrumented
	}
	for _, cl := range failed {
		cl.fail(err)
	}
}

// takeInflight empties inflight, returning its calls in sequence order.
// Callers hold c.mu.
func (c *Client) takeInflight() []*call {
	calls := make([]*call, 0, len(c.inflight))
	for _, cl := range c.inflight {
		calls = append(calls, cl)
	}
	sort.Slice(calls, func(i, j int) bool { return calls[i].req.Seq < calls[j].req.Seq })
	clear(c.inflight)
	return calls
}

// shutdown fails every queued and in-flight call with ErrClosed; connLoop
// runs it exactly once, on exit.
func (c *Client) shutdown() {
	err := &opError{stage: "send", kind: ErrClosed}
	c.mu.Lock()
	pend := c.pending
	c.pending = nil
	infl := c.takeInflight()
	c.mu.Unlock()
	for _, cl := range infl {
		cl.fail(err)
	}
	for _, cl := range pend {
		cl.fail(err)
	}
}

// runEpoch drives one connection until it fails or the client closes: a
// reader goroutine demultiplexes responses while this (writer) side drains
// the pending queue, coalescing the hello preamble and every ready frame
// into single writes. The returned error is the epoch's classified cause of
// death.
func (c *Client) runEpoch(conn net.Conn) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		_ = conn.Close()
		return &opError{stage: "send", kind: ErrClosed}
	}
	c.conn = conn
	c.mu.Unlock()

	readerErr := make(chan error, 1)
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		c.readLoop(conn, readerErr)
	}()
	defer func() {
		_ = conn.Close()
		rwg.Wait()
		c.mu.Lock()
		if c.conn == conn {
			c.conn = nil
		}
		c.mu.Unlock()
	}()

	buf := wire.GetBuffer()
	defer buf.Release()
	hello := true
	for {
		calls := c.takePending()
		if len(calls) == 0 && !hello {
			select {
			case <-c.work:
				continue
			case err := <-readerErr:
				return err
			case <-c.closeCh:
				return &opError{stage: "send", kind: ErrClosed}
			}
		}
		if len(calls) > 0 && c.overlap.Load() {
			// Group commit: the caller that kicked us parked right after its
			// enqueue, so concurrent callers are often still runnable with
			// their frames not yet queued. One yield lets them land in this
			// same write instead of costing a syscall each. Gated on overlap
			// so sequential callers never pay for the yield.
			runtime.Gosched()
			calls = append(calls, c.takePending()...)
		}
		buf.Reset()
		if hello {
			wire.AppendHello(buf, c.id)
			hello = false
		}
		for _, cl := range calls {
			start := buf.Len()
			wire.AppendRequest(buf, &cl.req)
			cl.reqBytes = int64(buf.Len() - start)
		}
		_ = conn.SetWriteDeadline(ioDeadline(c.cfg.WriteTimeout))
		n, err := conn.Write(buf.Bytes())
		if n > 0 {
			c.bytesSent.Add(uint64(n)) // nil-safe no-op when uninstrumented
		}
		if err != nil {
			werr := c.wrapIOErr("send", err, c.writeTimeouts)
			// The reader usually dies of the same failure with a more
			// specific diagnosis (it closes the conn on its way out, which
			// is what writes then trip over); prefer its verdict.
			select {
			case rerr := <-readerErr:
				werr = rerr
			default:
			}
			return werr
		}
		c.armReadDeadline(conn)
	}
}

// takePending moves ready calls from pending to inflight (bounded by
// maxInflightFrames), assigning sequence numbers to fresh ones. Retried
// calls keep their seqs.
func (c *Client) takePending() []*call {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := min(maxInflightFrames-len(c.inflight), len(c.pending))
	if n <= 0 {
		return nil
	}
	calls := make([]*call, n)
	copy(calls, c.pending)
	for _, cl := range calls {
		if cl.req.Seq == 0 {
			c.seq++
			cl.req.Seq = c.seq
		}
		c.inflight[cl.req.Seq] = cl
	}
	c.pending = append(c.pending[:0], c.pending[n:]...)
	return calls
}

// armReadDeadline (re)arms the read deadline after a write, under the same
// lock that guards inflight so it can never race a reader that just drained
// the last response and disarmed.
func (c *Client) armReadDeadline(conn net.Conn) {
	if c.cfg.ReadTimeout <= 0 {
		return
	}
	c.mu.Lock()
	if len(c.inflight) > 0 {
		_ = conn.SetReadDeadline(ioDeadline(c.cfg.ReadTimeout))
	}
	c.mu.Unlock()
}

// readLoop reads response frames until the connection dies, handing each to
// deliver. On failure it closes the conn (unblocking the writer) and posts
// its classified error.
func (c *Client) readLoop(conn net.Conn, readerErr chan<- error) {
	br := bufio.NewReaderSize(conn, clientBufSize)
	buf := wire.GetBuffer()
	defer buf.Release()
	for {
		h, payload, err := wire.ReadFrame(br, buf)
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() && c.inflightEmpty() {
				// An idle deadline expired with nothing awaited (the frames
				// it guarded were answered after it was armed): disarm and
				// keep reading. No bytes can be lost mid-frame — the server
				// only sends in response to in-flight requests.
				_ = conn.SetReadDeadline(time.Time{})
				continue
			}
			_ = conn.Close() // unblock the writer side of this epoch
			readerErr <- c.wrapIOErr("recv", err, c.readTimeouts)
			return
		}
		c.bytesRecv.Add(uint64(wire.HeaderSize + len(payload))) // nil-safe
		resp, derr := wire.DecodeResponse(h, payload)
		if derr != nil {
			_ = conn.Close()
			readerErr <- c.wrapIOErr("recv", derr, c.readTimeouts)
			return
		}
		c.deliver(&resp, int64(wire.HeaderSize+len(payload)), conn)
	}
}

// inflightEmpty reports whether no frames await responses.
func (c *Client) inflightEmpty() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.inflight) == 0
}

// deliver routes one response frame to its in-flight call by seq,
// reassembling streamed scan chunks, managing the read deadline and waking
// the writer when a completed call frees in-flight room.
func (c *Client) deliver(resp *wire.Response, frameBytes int64, conn net.Conn) {
	var completed *call
	c.mu.Lock()
	if cl := c.inflight[resp.Seq]; cl != nil {
		cl.respBytes += frameBytes
		if resp.Op == wire.OpScan && resp.Err == "" {
			cl.cells = appendCells(cl.cells, resp.Cells)
		}
		if !resp.Chunk {
			delete(c.inflight, resp.Seq)
			completed = cl
		}
	}
	kick := len(c.pending) > 0 && len(c.inflight) < maxInflightFrames
	if c.cfg.ReadTimeout > 0 {
		if len(c.inflight) == 0 {
			_ = conn.SetReadDeadline(time.Time{})
		} else {
			_ = conn.SetReadDeadline(ioDeadline(c.cfg.ReadTimeout))
		}
	}
	c.mu.Unlock()
	if kick {
		c.kick()
	}
	if completed != nil {
		completed.complete(resp)
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

// complete finishes a call on its delivered response: result extraction,
// span bookkeeping (exact on-wire bytes) and wake-up. Application errors
// mean the op executed server-side.
func (cl *call) complete(resp *wire.Response) {
	if resp.Err != "" {
		if resp.Flags&wire.FlagFenced != 0 {
			// Rehydrate the fencing sentinel the server flattened to a
			// string: callers match with errors.Is(err, ErrFenced).
			cl.err = fmt.Errorf("%w: %s", ErrFenced, resp.Err)
		} else {
			cl.err = errors.New(resp.Err)
		}
	} else {
		switch cl.req.Op {
		case wire.OpGet:
			cl.found = resp.Found
			if resp.Found {
				// Copy: resp.Value aliases the reader's frame buffer.
				cl.value = append([]byte(nil), resp.Value...)
			}
		case wire.OpStatus:
			cl.clock, cl.cursor, cl.crc = resp.Clock, resp.Cursor, resp.Crc
		case wire.OpMapGet:
			// Copy: resp.Map aliases the reader's frame buffer.
			cl.value = append([]byte(nil), resp.Map...)
		}
	}
	if cl.sp != nil {
		cl.sp.SetRetries(cl.attempts)
		cl.sp.SetBytes(cl.reqBytes + cl.respBytes)
		cl.sp.EndErr(cl.err)
	}
	close(cl.done)
}

// fail finishes a call with a transport-level error.
func (cl *call) fail(err error) {
	cl.err = err
	if cl.sp != nil {
		cl.sp.SetRetries(max(cl.attempts-1, 0))
		cl.sp.EndErr(err)
	}
	close(cl.done)
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
	cl, err := c.do(wire.Request{Op: wire.OpGet, Table: table, Row: row, Column: column})
	if err != nil {
		return nil, false, err
	}
	return cl.value, cl.found, nil
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
	cl, err := c.do(wire.Request{Op: wire.OpScan, Table: table, Scan: opts})
	if err != nil {
		return nil, err
	}
	return cl.cells, nil
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
	cl, err := c.do(wire.Request{Op: wire.OpStatus})
	if err != nil {
		return 0, 0, 0, err
	}
	return cl.clock, cl.cursor, cl.crc, nil
}

// ReplEpoch ships a batch of replication records stamped with the sender's
// shard epoch. A node holding a higher epoch rejects the batch with an
// ErrFenced-matchable error — the wire half of epoch fencing (DESIGN.md §15).
// Records carry explicit timestamps and apply idempotently, so retried
// batches are safe.
func (c *Client) ReplEpoch(epoch uint64, records [][]byte) error {
	_, err := c.do(wire.Request{Op: wire.OpRepl, Epoch: epoch, Records: records})
	return err
}

// MapGet fetches the server's current encoded partition map (nil when the
// node has none yet).
func (c *Client) MapGet() ([]byte, error) {
	cl, err := c.do(wire.Request{Op: wire.OpMapGet})
	if err != nil {
		return nil, err
	}
	return cl.value, nil
}

// MapSet replaces the server's partition map with the encoded m.
func (c *Client) MapSet(m []byte) error {
	_, err := c.do(wire.Request{Op: wire.OpMapSet, Map: m})
	return err
}

// ScanVersions returns every retained version of every matching cell —
// newest first per cell, cells in key order — streamed back in chunks like a
// plain Scan. This is the cluster dump path.
func (c *Client) ScanVersions(table string, opts kvstore.ScanOptions) ([]kvstore.Cell, error) {
	cl, err := c.do(wire.Request{Op: wire.OpScan, Flags: wire.FlagVersions, Table: table, Scan: opts})
	if err != nil {
		return nil, err
	}
	return cl.cells, nil
}
