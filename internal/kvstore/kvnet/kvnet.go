// Package kvnet exposes a kvstore.Store over TCP so workflow steps running in
// separate processes can share data containers, mirroring the paper's setup
// where steps interact with a remote HBase cluster through (intercepted)
// client libraries.
//
// The wire protocol is the length-prefixed binary framing of
// internal/kvstore/wire (DESIGN.md §7): every frame carries a magic,
// version, op, flags, a client-assigned sequence number and a payload
// length. A client call is one lockstep round trip on the caller's
// goroutine: one request frame, then its response frames, matched by
// sequence number. The server answers a scan from one Table.Scan and streams
// it back as chunks of at most wire.ScanChunkCells cells, which the client
// reassembles before the call returns. A peer speaking any other
// protocol or frame version fails loudly at the first frame instead of
// corrupting state.
//
// # Resilience
//
// The client survives transient transport failures when ClientConfig enables
// retries: a failed try tears the socket down, and the next try redials
// after exponential backoff with seeded jitter and re-sends the call's frame
// under its original sequence number. Reads (Get, Scan) are
// idempotent and always retryable; mutating ops (Put, Delete, Apply) are
// retryable because the server keeps each client's newest claimed sequence
// number — a retry of an op the server already applied, or is still
// applying, returns that outcome instead of applying twice, and a copy of
// an older one is refused. CreateTable maps to EnsureTable server-side and is idempotent
// by construction. Application-level errors (an error response frame) mean
// the op executed; they are returned immediately and never retried.
//
// The server drains gracefully on Close: in-flight requests finish and their
// responses are flushed within a bounded drain window before connections
// close, so a shutdown never chops a response mid-frame.
package kvnet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"smartflux/internal/kvstore"
	"smartflux/internal/kvstore/wire"
	"smartflux/internal/obs"
)

// Sentinel errors, matchable with errors.Is through every kvnet wrapper.
var (
	// ErrClosed reports an operation on a client whose Close has begun. It
	// replaces the raw net errors a concurrent Close used to surface.
	ErrClosed = errors.New("kvnet: client closed")
	// ErrTimeout reports an I/O deadline expiring on a round trip. The
	// original net.Error remains reachable via errors.As.
	ErrTimeout = errors.New("kvnet: i/o timeout")
	// ErrFenced reports a write rejected by epoch fencing: the frame's epoch
	// is stale or the serving node has demoted itself to read-only
	// (DESIGN.md §8). It crosses the wire as wire.FlagFenced, so a client's
	// error stays errors.Is-matchable after the round trip.
	ErrFenced = errors.New("kvnet: fenced: stale epoch or demoted node")
	// ErrUnavailable reports an operation refused without touching the
	// network: the cluster client wraps it when a shard's circuit breaker is
	// open, so callers get a prompt typed failure instead of another
	// round of dials against a peer that keeps failing.
	ErrUnavailable = errors.New("kvnet: peer unavailable")
)

// DefaultDrainTimeout bounds how long Server.Close lets in-flight responses
// flush before forcing connections down.
const DefaultDrainTimeout = time.Second

// serverBufSize sizes the per-connection buffered reader and writer. A read
// takes every request frame that has arrived in one syscall; writes coalesce
// response frames until the inbound buffer runs dry.
const serverBufSize = 64 << 10

// Server serves a Store over TCP.
type Server struct {
	store *kvstore.Store

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	closed   bool

	// dedup holds each client's newest claimed mutating seq and its
	// outcome, keyed by ClientID — the server half of exactly-once retries.
	dedupMu sync.Mutex
	dedup   map[uint64]*dedupEntry

	// Cluster control-plane hooks (DESIGN.md §8), installed by
	// kvstore/cluster before Listen. All are optional: without a repl
	// handler OpRepl frames are rejected, without map handlers OpMapGet /
	// OpMapSet are, and without a status handler OpStatus reports the
	// store's clock with a zero log cursor.
	replApply func(epoch uint64, records [][]byte) error
	statusFn  func() (clock, cursor uint64, crc uint32)
	mapGetFn  func() []byte
	mapSetFn  func(m []byte) error
	writeGate func() error

	obs *serverObs
}

// dedupEntry is a client's newest claimed sequence number: done is closed
// once msg holds the mutation's outcome ("" = applied cleanly, else the
// application error string).
type dedupEntry struct {
	seq  uint64
	done chan struct{}
	msg  string
}

// serverObs carries the server's pre-resolved instruments.
type serverObs struct {
	o          *obs.Observer
	requests   [wire.NumOps]*obs.Counter
	reqDur     *obs.Histogram
	decodeErrs *obs.Counter
	encodeErrs *obs.Counter
	acceptErrs *obs.Counter
	conns      *obs.Counter
	dedupHits  *obs.Counter
	bytesSent  *obs.Counter
	bytesRecv  *obs.Counter
}

// NewServer creates a server for the given store.
func NewServer(store *kvstore.Store) *Server {
	return &Server{
		store: store,
		conns: make(map[net.Conn]struct{}),
		dedup: make(map[uint64]*dedupEntry),
	}
}

// Instrument attaches an observer to the server: per-op request counters, a
// request-latency histogram, connection counts, retry-dedup hits, exact
// on-wire byte counters, and decode/encode/accept error counters (plus a
// per-connection error counter labeled by remote address). Call before
// Listen; passing nil detaches.
func (s *Server) Instrument(o *obs.Observer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if o == nil {
		s.obs = nil
		return
	}
	so := &serverObs{
		o:          o,
		reqDur:     o.Histogram("smartflux_kvnet_request_duration_seconds"),
		decodeErrs: o.Counter(`smartflux_kvnet_errors_total{kind="decode"}`),
		encodeErrs: o.Counter(`smartflux_kvnet_errors_total{kind="encode"}`),
		acceptErrs: o.Counter(`smartflux_kvnet_errors_total{kind="accept"}`),
		conns:      o.Counter("smartflux_kvnet_connections_total"),
		dedupHits:  o.Counter("smartflux_kvnet_dedup_hits_total"),
		bytesSent:  o.Counter(`smartflux_kvnet_bytes_total{dir="sent"}`),
		bytesRecv:  o.Counter(`smartflux_kvnet_bytes_total{dir="recv"}`),
	}
	// The hello preamble is connection plumbing, not a request: it gets no
	// counter and no latency sample.
	for op := wire.OpCreateTable; int(op) < wire.NumOps; op++ {
		so.requests[op] = o.Counter(fmt.Sprintf("smartflux_kvnet_requests_total{op=%q}", wire.OpName(op)))
	}
	s.obs = so
}

// SetReplHandler installs the callback answering OpRepl frames: a batch of
// replication records to apply (idempotently — records carry explicit
// timestamps) to this node's store, stamped with the sender's shard epoch.
// Call before Listen; without a handler replication frames are rejected
// with an application error.
func (s *Server) SetReplHandler(fn func(epoch uint64, records [][]byte) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.replApply = fn
}

// SetWriteGate installs a hook consulted before every mutating op and every
// OpRepl frame. A non-nil error rejects the request without executing it —
// the hook a fenced (demoted, read-only) cluster node uses to refuse writes.
// Errors wrapping ErrFenced cross the wire flagged wire.FlagFenced. Call
// before Listen.
func (s *Server) SetWriteGate(fn func() error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writeGate = fn
}

// SetStatusHandler installs the callback answering OpStatus frames with the
// node's replication status (clock, log cursor, cursor checksum). Call
// before Listen; without a handler OpStatus reports the store clock and a
// zero cursor.
func (s *Server) SetStatusHandler(fn func() (clock, cursor uint64, crc uint32)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.statusFn = fn
}

// SetMapHandlers installs the callbacks answering partition-map frames:
// get returns the node's current encoded map (nil = none yet), set replaces
// it. Call before Listen; without handlers map frames are rejected.
func (s *Server) SetMapHandlers(get func() []byte, set func(m []byte) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mapGetFn, s.mapSetFn = get, set
}

// reportErr counts an async serving error (a request decode, response
// encode or listener accept failure; a clean client disconnect is not one):
// the aggregate kind counter, and a per-connection counter when a remote
// address is known.
func (s *Server) reportErr(kind *obs.Counter, remote string) {
	kind.Inc()
	if so := s.obs; so != nil && remote != "" {
		so.o.Counter(fmt.Sprintf("smartflux_kvnet_conn_errors_total{remote=%q}", remote)).Inc()
	}
}

// isClosed reports whether Close has begun.
func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address. Serving happens on background goroutines; call
// Close to stop them.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("kvnet listen: %w", err)
	}
	return s.ServeListener(ln)
}

// ServeListener starts accepting connections on an already-bound listener —
// the interposition point for fault-injecting wrappers (internal/fault's
// WrapListener) and custom transports. The server takes ownership of ln and
// returns its address.
func (s *Server) ServeListener(ln net.Listener) (string, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = ln.Close()
		return "", errors.New("kvnet: server closed")
	}
	s.listener = ln
	s.mu.Unlock()

	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) || s.isClosed() {
				return // listener closed by Close
			}
			// A failing listener is a real fault: surface it instead of
			// silently stopping the accept loop.
			var acceptErrs *obs.Counter
			if so := s.obs; so != nil {
				acceptErrs = so.acceptErrs
			}
			s.reportErr(acceptErrs, "")
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		if so := s.obs; so != nil {
			so.conns.Inc()
		}

		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// cleanDisconnect reports whether a connection error is a normal client
// departure rather than a protocol fault: EOF between frames, a reset or
// broken pipe from an abruptly killed client, or our own shutdown. A
// mid-frame EOF (io.ErrUnexpectedEOF) is deliberately NOT clean — a
// truncated frame is indistinguishable from corrupt data and stays
// observable through the decode-error counter.
func cleanDisconnect(err error) bool {
	return errors.Is(err, io.EOF) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE)
}

// serveConn answers one client connection until it closes. The first frame
// must be the hello preamble carrying the client's dedup identity; request
// frames are then answered in arrival order, with responses buffered and
// flushed once the inbound buffer runs dry (so frames that arrived together
// cost one write syscall, not one per response). A clean disconnect (EOF or
// reset between frames — killed clients are routine under connection churn
// — or the server shutting down) ends it quietly; a decode or encode failure
// ends it counted in the error counters.
func (s *Server) serveConn(conn net.Conn) {
	// Close errors after a finished (or already failed) session are noise.
	defer func() { _ = conn.Close() }()
	remote := conn.RemoteAddr().String()
	so := s.obs
	br := bufio.NewReaderSize(conn, serverBufSize)
	bw := bufio.NewWriterSize(conn, serverBufSize)
	in := wire.GetBuffer()
	defer in.Release()
	out := wire.GetBuffer()
	defer out.Release()

	var decodeErrs, encodeErrs *obs.Counter
	if so != nil {
		decodeErrs, encodeErrs = so.decodeErrs, so.encodeErrs
	}

	var clientID uint64
	helloSeen := false
	for {
		h, payload, err := wire.ReadFrame(br, in)
		if err != nil {
			if errors.Is(err, wire.ErrVersion) {
				// Fail loudly toward the peer before hanging up: address the
				// rejection to the offending frame so a newer client can
				// surface "version mismatch" instead of a silent drop.
				out.Reset()
				wire.AppendErrResponse(out, h.Op, h.Seq, "kvnet: "+err.Error())
				_, _ = bw.Write(out.Bytes())
				_ = bw.Flush()
			}
			if !cleanDisconnect(err) && !s.isClosed() {
				// Garbage on the wire (a foreign protocol, torn frames, version
				// mismatches): a fault worth surfacing, not a normal hang-up.
				s.reportErr(decodeErrs, remote)
			}
			return
		}
		if so != nil {
			so.bytesRecv.Add(uint64(wire.HeaderSize + len(payload)))
		}
		req, err := wire.DecodeRequest(h, payload)
		if err != nil {
			s.reportErr(decodeErrs, remote)
			return
		}
		if req.Op == wire.OpHello {
			// One-way preamble: record the dedup identity, send nothing. The
			// first bytes a client ever reads are its first op's response.
			clientID = req.ClientID
			helloSeen = true
			continue
		}
		if !helloSeen { // a request frame before the hello preamble
			s.reportErr(decodeErrs, remote)
			return
		}

		var start time.Time
		if so != nil {
			start = time.Now()
		}
		werr := s.serveRequest(&req, clientID, bw, out)
		if so != nil {
			so.reqDur.Observe(time.Since(start).Seconds())
			so.requests[req.Op].Inc()
		}
		if werr == nil && br.Buffered() == 0 {
			werr = bw.Flush()
		}
		if werr != nil {
			if !cleanDisconnect(werr) && !s.isClosed() {
				s.reportErr(encodeErrs, remote)
			}
			return
		}
	}
}

// serveRequest answers one decoded request, writing its response frame(s)
// into bw via the scratch buffer out. The returned error is a transport
// write failure; application errors travel inside error response frames.
func (s *Server) serveRequest(req *wire.Request, clientID uint64, bw *bufio.Writer, out *wire.Buffer) error {
	if req.Op == wire.OpScan {
		return s.serveScan(req, bw, out)
	}
	out.Reset()
	// The write gate runs before dedup: a gate rejection reflects the node's
	// current role, not the op's outcome, so it must never be remembered as
	// one.
	if (wire.Mutating(req.Op) || req.Op == wire.OpRepl) && s.writeGate != nil {
		if err := s.writeGate(); err != nil {
			appendError(out, req.Op, req.Seq, err)
			return s.writeFrames(bw, out)
		}
	}
	switch {
	case req.Op == wire.OpPing:
		wire.AppendOKResponse(out, wire.OpPing, req.Seq)
	case req.Op == wire.OpStatus:
		if s.statusFn != nil {
			clock, cursor, crc := s.statusFn()
			wire.AppendStatusResponse(out, req.Seq, clock, cursor, crc)
		} else {
			wire.AppendStatusResponse(out, req.Seq, s.store.Clock(), 0, 0)
		}
	case req.Op == wire.OpRepl:
		if s.replApply == nil {
			wire.AppendErrResponse(out, wire.OpRepl, req.Seq, "kvnet: node accepts no replication stream")
			break
		}
		// No dedup entry: replication records replay idempotently by
		// explicit timestamp, so a retried batch is harmless by design.
		if err := s.replApply(req.Epoch, req.Records); err != nil {
			appendError(out, wire.OpRepl, req.Seq, err)
		} else {
			wire.AppendOKResponse(out, wire.OpRepl, req.Seq)
		}
	case req.Op == wire.OpMapGet:
		if s.mapGetFn == nil {
			wire.AppendErrResponse(out, wire.OpMapGet, req.Seq, "kvnet: node serves no partition map")
			break
		}
		wire.AppendMapResponse(out, req.Seq, s.mapGetFn())
	case req.Op == wire.OpMapSet:
		if s.mapSetFn == nil {
			wire.AppendErrResponse(out, wire.OpMapSet, req.Seq, "kvnet: node accepts no partition map")
			break
		}
		appendResult(out, wire.OpMapSet, req.Seq, errString(s.mapSetFn(req.Map)))
	case req.Op == wire.OpGet:
		t, err := s.store.Table(req.Table)
		if err != nil {
			wire.AppendErrResponse(out, wire.OpGet, req.Seq, err.Error())
			break
		}
		v, found := t.Get(req.Row, req.Column)
		wire.AppendGetResponse(out, req.Seq, v, found)
	case req.Op == wire.OpCreateTable:
		// Idempotent by construction; no dedup entry needed.
		_, err := s.store.EnsureTable(req.Table, kvstore.TableOptions{MaxVersions: req.MaxVers})
		appendResult(out, req.Op, req.Seq, errString(err))
	case wire.Mutating(req.Op) && clientID != 0 && req.Seq != 0:
		// A retry can overtake its original, still applying on an abandoned
		// connection: it finds the seq claimed and waits for that outcome.
		// A copy of an older seq was abandoned by its client, which has
		// since moved on: applying it now would overwrite a newer write.
		e, claimed := s.dedupClaim(clientID, req.Seq)
		if e == nil {
			wire.AppendErrResponse(out, req.Op, req.Seq, "kvnet: stale request: client has sent a newer mutation")
			break
		}
		if claimed {
			e.msg = errString(s.applyMutation(req))
			close(e.done)
		} else {
			<-e.done
			if so := s.obs; so != nil {
				so.dedupHits.Inc()
			}
		}
		appendResult(out, req.Op, req.Seq, e.msg)
	default:
		// Mutating op without a dedup identity (seq 0): apply uncached.
		appendResult(out, req.Op, req.Seq, errString(s.applyMutation(req)))
	}
	return s.writeFrames(bw, out)
}

// serveScan answers one scan: the table's Scan, or its ScanVersions when
// FlagVersions is set, so either is a snapshot of the table, streamed as
// chunks of at most wire.ScanChunkCells cells. An empty result is one empty
// final chunk.
func (s *Server) serveScan(req *wire.Request, bw *bufio.Writer, out *wire.Buffer) error {
	t, err := s.store.Table(req.Table)
	if err != nil {
		out.Reset()
		wire.AppendErrResponse(out, wire.OpScan, req.Seq, err.Error())
		return s.writeFrames(bw, out)
	}
	scan := t.Scan
	if req.Flags&wire.FlagVersions != 0 {
		scan = t.ScanVersions
	}
	cells := scan(req.Scan)
	for {
		n := min(len(cells), wire.ScanChunkCells)
		out.Reset()
		wire.AppendScanChunk(out, req.Seq, cells[:n], n == len(cells))
		if err := s.writeFrames(bw, out); err != nil || n == len(cells) {
			return err
		}
		cells = cells[n:]
	}
}

// writeFrames copies one encoded response (or chunk) into the buffered
// writer, counting exact on-wire bytes.
func (s *Server) writeFrames(bw *bufio.Writer, out *wire.Buffer) error {
	if _, err := bw.Write(out.Bytes()); err != nil {
		return err
	}
	if so := s.obs; so != nil {
		so.bytesSent.Add(uint64(out.Len()))
	}
	return nil
}

// applyMutation applies one mutating request to the store. The store copies
// what it keeps of a frame's values into its version windows and blobs, so
// no stored version pins the frame, and the server's value memory is bounded
// by the live versions' own bytes (DESIGN.md §5).
func (s *Server) applyMutation(req *wire.Request) error {
	t, err := s.store.Table(req.Table)
	if err != nil {
		return err
	}
	switch req.Op {
	case wire.OpPut:
		return t.Put(req.Row, req.Column, req.Value)
	case wire.OpDelete:
		return t.Delete(req.Row, req.Column)
	case wire.OpApply:
		b := kvstore.GetBatch().Grow(len(req.Ops))
		defer b.Release()
		for _, o := range req.Ops {
			if o.Delete {
				b.Delete(o.Row, o.Column)
			} else {
				b.Put(o.Row, o.Column, o.Value)
			}
		}
		return t.Apply(b)
	default:
		return fmt.Errorf("kvnet: op %s is not a mutation", wire.OpName(req.Op))
	}
}

// dedupClaim returns the client's entry for seq, and whether this call
// claimed it: the claimer applies the mutation and publishes the outcome,
// and every later copy of seq waits for it outside dedupMu. A client's
// calls end, retries included, before it assigns the next seq, so only its
// newest seq can still be retried; a seq below it gets no entry (nil).
func (s *Server) dedupClaim(clientID, seq uint64) (*dedupEntry, bool) {
	s.dedupMu.Lock()
	defer s.dedupMu.Unlock()
	e := s.dedup[clientID]
	switch {
	case e != nil && seq == e.seq:
		return e, false
	case e != nil && seq < e.seq:
		return nil, false
	}
	e = &dedupEntry{seq: seq, done: make(chan struct{})}
	s.dedup[clientID] = e
	return e, true
}

// appendResult encodes a mutating op's outcome: an empty message is a bare
// OK frame, anything else an error frame.
func appendResult(out *wire.Buffer, op byte, seq uint64, msg string) {
	if msg == "" {
		wire.AppendOKResponse(out, op, seq)
	} else {
		wire.AppendErrResponse(out, op, seq, msg)
	}
}

// appendError encodes an application error, preserving epoch-fencing
// rejections as wire.FlagFenced so clients can match them with errors.Is.
func appendError(out *wire.Buffer, op byte, seq uint64, err error) {
	if errors.Is(err, ErrFenced) {
		wire.AppendErrResponseFlags(out, op, seq, wire.FlagFenced, err.Error())
		return
	}
	wire.AppendErrResponse(out, op, seq, err.Error())
}

// errString flattens an error for the wire.
func errString(err error) string {
	if err != nil {
		return err.Error()
	}
	return ""
}

// Close stops the listener, drains live connections and waits for all
// serving goroutines to exit: idle connections wake and close immediately
// while in-flight requests get up to DefaultDrainTimeout to flush their
// response. Close is idempotent and safe to call concurrently.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	ln := s.listener
	// Deadline calls never block, so draining the live connections directly
	// under the lock is safe and keeps the set consistent with serveConn's
	// removals. Decodes blocked between frames wake right away; writes of
	// already-accepted requests get the drain window to flush.
	now := time.Now()
	for conn := range s.conns {
		_ = conn.SetReadDeadline(now)
		_ = conn.SetWriteDeadline(now.Add(DefaultDrainTimeout))
	}
	s.mu.Unlock()

	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}
