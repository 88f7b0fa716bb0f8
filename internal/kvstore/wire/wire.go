// Package wire is the binary framing layer for kvnet: a hand-rolled,
// length-prefixed, little-endian protocol replacing the reflective gob
// stream (DESIGN.md §13). Every message is one frame:
//
//	offset  size  field
//	0       2     magic   0xFA57 ("fast", little-endian on the wire)
//	2       1     version protocol revision; mismatches fail loudly
//	3       1     op      operation / response discriminator
//	4       2     flags   FlagError, FlagFound, FlagChunk, FlagVersions, FlagFenced
//	6       8     seq     client-assigned sequence number (dedup + demux)
//	14      4     len     payload length in bytes
//	18      len   payload op-specific little-endian fields
//
// There is no checksum: TCP already provides one, and the magic+version+len
// triple catches desynchronization and peers speaking another protocol.
// Frames are built in pooled Buffers and decoded zero-copy: Reader.Bytes and
// the cells produced by DecodeResponse alias the frame payload, valid until
// the Buffer that holds it is reset or released.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"smartflux/internal/kvstore"
)

const (
	// Magic marks every frame. 0xFA57 is stored little-endian, so the raw
	// stream starts 0x57 0xFA — bytes ASCII text will not produce in that
	// order at a frame boundary.
	Magic uint16 = 0xFA57
	// Version is this build's protocol revision. Peers speaking any other
	// revision are rejected with ErrVersion before any payload is trusted.
	// v2 added the epoch stamp to OpRepl payloads and the FlagFenced
	// response flag (DESIGN.md §15).
	Version byte = 2
	// HeaderSize is the fixed frame header length in bytes.
	HeaderSize = 18
	// MaxPayload bounds a frame's declared payload length. A length field
	// beyond it is treated as stream corruption, not an allocation request.
	MaxPayload = 64 << 20
	// ScanChunkCells caps the number of cells per streamed scan chunk.
	ScanChunkCells = 256
)

// Frame ops. OpHello is the one-way connection preamble (client id +
// implicit version check); the rest mirror kvnet's request set. Responses
// reuse the request's op byte. OpPing through OpMapSet are the cluster
// control plane (DESIGN.md §14): liveness probes, replication status
// (clock + log cursor + cursor checksum), timestamped replication record
// batches, and partition-map exchange.
const (
	OpHello byte = iota + 1
	OpCreateTable
	OpPut
	OpGet
	OpDelete
	OpScan
	OpApply
	OpPing
	OpStatus
	OpRepl
	OpMapGet
	OpMapSet

	opMax // one past the last valid op
)

// NumOps is the number of valid op bytes plus one — the size of any array
// indexed directly by op byte (op 0 is invalid and unused).
const NumOps = int(opMax)

// Frame flags.
const (
	// FlagError marks a response whose payload is a single error string.
	FlagError uint16 = 1 << iota
	// FlagFound marks a Get response that carries a value.
	FlagFound
	// FlagChunk marks a non-final scan chunk: more chunks follow for the
	// same seq. The final chunk has the flag clear.
	FlagChunk
	_ // bit 3 is unassigned; the flags below keep their wire values
	// FlagVersions marks an OpScan request asking for every retained
	// version of each matching cell (newest first per cell) instead of only
	// the latest — the cluster dump path. Response chunks reuse the plain
	// scan cell encoding, repeating row/column per version.
	FlagVersions
	// FlagFenced marks an error response as an epoch-fencing rejection: the
	// node refused the write because the frame's epoch is stale or the node
	// itself is demoted (DESIGN.md §15). Riding a header flag keeps the
	// rejection typed across the wire, where application errors otherwise
	// flatten to strings.
	FlagFenced
)

// Protocol errors. ErrBadMagic and ErrVersion are terminal for a
// connection: the peer is not speaking this protocol (or this revision of
// it) and no resynchronization is attempted.
var (
	ErrBadMagic      = errors.New("wire: bad frame magic (peer is not speaking the kvnet binary protocol)")
	ErrVersion       = errors.New("wire: protocol version mismatch")
	ErrFrameTooLarge = errors.New("wire: frame payload length exceeds limit")
	ErrTruncated     = errors.New("wire: truncated or malformed payload")
	ErrBadOp         = errors.New("wire: unknown op")
)

// OpName returns the wire op's kvnet operation label (used for counters,
// spans and error messages).
func OpName(op byte) string {
	switch op {
	case OpHello:
		return "hello"
	case OpCreateTable:
		return "create_table"
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpDelete:
		return "delete"
	case OpScan:
		return "scan"
	case OpApply:
		return "apply"
	case OpPing:
		return "ping"
	case OpStatus:
		return "status"
	case OpRepl:
		return "repl"
	case OpMapGet:
		return "map_get"
	case OpMapSet:
		return "map_set"
	default:
		return "unknown"
	}
}

// Mutating reports whether the op changes store state (and therefore
// participates in the server's exactly-once dedup window). OpRepl and
// OpMapSet mutate but stay out of the window deliberately: replication
// records carry explicit timestamps and replay idempotently
// (kvstore.ReplayPut skips duplicate timestamps), and a partition map is
// replaced whole — retrying either is safe without dedup state.
func Mutating(op byte) bool {
	switch op {
	case OpCreateTable, OpPut, OpDelete, OpApply:
		return true
	}
	return false
}

// Header is a parsed frame header.
type Header struct {
	Op    byte
	Flags uint16
	Seq   uint64
	Len   uint32
}

// ParseHeader validates a raw HeaderSize-byte header. On a version
// mismatch the parsed header is still returned alongside ErrVersion so the
// server can address its rejection frame to the offending seq.
func ParseHeader(h []byte) (Header, error) {
	if len(h) < HeaderSize {
		return Header{}, fmt.Errorf("%w: %d-byte header", ErrTruncated, len(h))
	}
	if binary.LittleEndian.Uint16(h[0:2]) != Magic {
		return Header{}, ErrBadMagic
	}
	hdr := Header{
		Op:    h[3],
		Flags: binary.LittleEndian.Uint16(h[4:6]),
		Seq:   binary.LittleEndian.Uint64(h[6:14]),
		Len:   binary.LittleEndian.Uint32(h[14:18]),
	}
	if h[2] != Version {
		return hdr, fmt.Errorf("%w: peer speaks v%d, this build speaks v%d", ErrVersion, h[2], Version)
	}
	if hdr.Op == 0 || hdr.Op >= opMax {
		return hdr, fmt.Errorf("%w: 0x%02x", ErrBadOp, hdr.Op)
	}
	if hdr.Len > MaxPayload {
		return hdr, fmt.Errorf("%w: %d bytes declared", ErrFrameTooLarge, hdr.Len)
	}
	return hdr, nil
}

// Buffer accumulates encoded frames. Get one from the pool with GetBuffer,
// return it with Release. A Buffer holds any number of back-to-back frames
// (the client coalesces a whole pipeline flush into one write) and is also
// the backing storage for ReadFrame, whose payload aliases it.
type Buffer struct {
	b          []byte
	frameStart int
}

// maxPooledBuffer keeps scan-sized monsters from pinning pool memory.
const maxPooledBuffer = 1 << 20

var bufPool = sync.Pool{New: func() any { return new(Buffer) }}

// GetBuffer returns an empty pooled Buffer.
func GetBuffer() *Buffer {
	return bufPool.Get().(*Buffer)
}

// Release resets the buffer and returns it to the pool. Any payload slices
// handed out by ReadFrame or Reader.Bytes become invalid.
func (b *Buffer) Release() {
	if cap(b.b) > maxPooledBuffer {
		b.b = nil
	}
	b.Reset()
	bufPool.Put(b)
}

// Reset empties the buffer, keeping its capacity.
func (b *Buffer) Reset() { b.b = b.b[:0]; b.frameStart = 0 }

// Len is the number of encoded bytes held.
func (b *Buffer) Len() int { return len(b.b) }

// Bytes is the encoded frame stream, valid until the next Reset/Release.
func (b *Buffer) Bytes() []byte { return b.b }

// BeginFrame appends a frame header with a zero length field; EndFrame
// patches the length once the payload is appended.
func (b *Buffer) BeginFrame(op byte, flags uint16, seq uint64) {
	b.frameStart = len(b.b)
	var h [HeaderSize]byte
	binary.LittleEndian.PutUint16(h[0:2], Magic)
	h[2] = Version
	h[3] = op
	binary.LittleEndian.PutUint16(h[4:6], flags)
	binary.LittleEndian.PutUint64(h[6:14], seq)
	b.b = append(b.b, h[:]...)
}

// EndFrame finalizes the frame opened by the last BeginFrame, patching the
// header's payload length.
func (b *Buffer) EndFrame() {
	payload := len(b.b) - b.frameStart - HeaderSize
	binary.LittleEndian.PutUint32(b.b[b.frameStart+14:b.frameStart+18], uint32(payload))
}

// U8 appends one byte.
func (b *Buffer) U8(v byte) { b.b = append(b.b, v) }

// U32 appends a little-endian uint32.
func (b *Buffer) U32(v uint32) {
	b.b = binary.LittleEndian.AppendUint32(b.b, v)
}

// U64 appends a little-endian uint64.
func (b *Buffer) U64(v uint64) {
	b.b = binary.LittleEndian.AppendUint64(b.b, v)
}

// Bool appends a bool as one byte.
func (b *Buffer) Bool(v bool) {
	if v {
		b.U8(1)
	} else {
		b.U8(0)
	}
}

// String appends a length-prefixed string.
func (b *Buffer) String(s string) {
	b.U32(uint32(len(s)))
	b.b = append(b.b, s...)
}

// Bytes32 appends a length-prefixed byte slice.
func (b *Buffer) Bytes32(v []byte) {
	b.U32(uint32(len(v)))
	b.b = append(b.b, v...)
}

// grow appends n uninitialized bytes and returns the slice covering them.
func (b *Buffer) grow(n int) []byte {
	if need := len(b.b) + n; need > cap(b.b) {
		nb := make([]byte, len(b.b), max(need, 2*cap(b.b)))
		copy(nb, b.b)
		b.b = nb
	}
	start := len(b.b)
	b.b = b.b[:start+n]
	return b.b[start:]
}

// ReadFrame reads one complete frame from r into buf, returning its parsed
// header and payload. The payload aliases buf and is valid until buf's
// next Reset/Release/ReadFrame. A clean EOF before the first header byte
// is returned as io.EOF; EOF mid-frame becomes io.ErrUnexpectedEOF. On a
// version mismatch the parsed header accompanies ErrVersion.
func ReadFrame(r io.Reader, buf *Buffer) (Header, []byte, error) {
	buf.Reset()
	hb := buf.grow(HeaderSize)
	if _, err := io.ReadFull(r, hb); err != nil {
		return Header{}, nil, err
	}
	h, err := ParseHeader(hb)
	if err != nil {
		return h, nil, err
	}
	pb := buf.grow(int(h.Len))
	if _, err := io.ReadFull(r, pb); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return h, nil, err
	}
	return h, pb, nil
}

// Reader decodes one frame payload with a sticky error: the first
// out-of-bounds read marks the payload malformed and every later read
// returns zero values. Callers decode unconditionally and check Done once.
type Reader struct {
	b   []byte
	off int
	bad bool
}

// NewReader wraps a frame payload.
func NewReader(b []byte) Reader { return Reader{b: b} }

// take reserves n bytes, or trips the sticky error.
func (r *Reader) take(n int) []byte {
	if r.bad || n < 0 || len(r.b)-r.off < n {
		r.bad = true
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	s := r.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	s := r.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

// Bool reads a one-byte bool; any nonzero byte is true.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// String reads a length-prefixed string (copies; strings are immutable).
func (r *Reader) String() string {
	n := int(r.U32())
	s := r.take(n)
	if s == nil {
		return ""
	}
	return string(s)
}

// Bytes reads a length-prefixed byte slice, zero-copy: the result aliases
// the frame payload and is only valid while the backing Buffer is.
func (r *Reader) Bytes() []byte {
	n := int(r.U32())
	return r.take(n)
}

// Done returns ErrTruncated if any read overran the payload or if bytes
// remain unconsumed — both indicate a torn or desynchronized frame.
func (r *Reader) Done() error {
	if r.bad {
		return ErrTruncated
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrTruncated, len(r.b)-r.off)
	}
	return nil
}

// Request is the decoded form of every client→server frame. Only the
// fields relevant to Op are meaningful.
type Request struct {
	Op       byte
	Flags    uint16
	Seq      uint64
	ClientID uint64 // OpHello
	Table    string
	Row      string
	Column   string
	Value    []byte // OpPut; aliases the frame payload on decode
	MaxVers  int    // OpCreateTable
	Scan     kvstore.ScanOptions
	Ops      []kvstore.Op // OpApply; values alias the frame payload on decode
	Records  [][]byte     // OpRepl; records alias the frame payload on decode
	Epoch    uint64       // OpRepl; the sender's shard epoch
	Map      []byte       // OpMapSet; aliases the frame payload on decode
}

// AppendRequest encodes req as one frame into b.
func AppendRequest(b *Buffer, req *Request) {
	b.BeginFrame(req.Op, req.Flags, req.Seq)
	switch req.Op {
	case OpHello:
		b.U64(req.ClientID)
	case OpCreateTable:
		b.String(req.Table)
		b.U32(uint32(req.MaxVers))
	case OpPut:
		b.String(req.Table)
		b.String(req.Row)
		b.String(req.Column)
		b.Bytes32(req.Value)
	case OpGet, OpDelete:
		b.String(req.Table)
		b.String(req.Row)
		b.String(req.Column)
	case OpScan:
		b.String(req.Table)
		b.String(req.Scan.StartRow)
		b.String(req.Scan.EndRow)
		b.String(req.Scan.RowPrefix)
		b.String(req.Scan.ColumnPrefix)
		b.U32(uint32(req.Scan.Limit))
	case OpApply:
		b.String(req.Table)
		b.U32(uint32(len(req.Ops)))
		for i := range req.Ops {
			op := &req.Ops[i]
			b.String(op.Row)
			b.String(op.Column)
			b.Bool(op.Delete)
			if !op.Delete {
				b.Bytes32(op.Value)
			}
		}
	case OpPing, OpStatus, OpMapGet:
		// Empty payloads.
	case OpRepl:
		b.U64(req.Epoch)
		b.U32(uint32(len(req.Records)))
		for _, rec := range req.Records {
			b.Bytes32(rec)
		}
	case OpMapSet:
		b.Bytes32(req.Map)
	}
	b.EndFrame()
}

// DecodeRequest decodes a frame into a Request. Value and Ops[i].Value
// alias payload; the store copies values on Put/Apply, so handing them
// straight to kvstore is safe and allocation-free.
func DecodeRequest(h Header, payload []byte) (Request, error) {
	req := Request{Op: h.Op, Flags: h.Flags, Seq: h.Seq}
	r := NewReader(payload)
	switch h.Op {
	case OpHello:
		req.ClientID = r.U64()
	case OpCreateTable:
		req.Table = r.String()
		req.MaxVers = int(r.U32())
	case OpPut:
		req.Table = r.String()
		req.Row = r.String()
		req.Column = r.String()
		req.Value = r.Bytes()
	case OpGet, OpDelete:
		req.Table = r.String()
		req.Row = r.String()
		req.Column = r.String()
	case OpScan:
		req.Table = r.String()
		req.Scan.StartRow = r.String()
		req.Scan.EndRow = r.String()
		req.Scan.RowPrefix = r.String()
		req.Scan.ColumnPrefix = r.String()
		req.Scan.Limit = int(r.U32())
	case OpApply:
		req.Table = r.String()
		n := int(r.U32())
		if n < 0 || n > len(payload)/9 { // each op encodes to ≥9 bytes
			return req, fmt.Errorf("%w: %d batch ops declared in %d-byte payload", ErrTruncated, n, len(payload))
		}
		req.Ops = make([]kvstore.Op, n)
		for i := range req.Ops {
			op := &req.Ops[i]
			op.Row = r.String()
			op.Column = r.String()
			op.Delete = r.Bool()
			if !op.Delete {
				op.Value = r.Bytes()
			}
		}
	case OpPing, OpStatus, OpMapGet:
		// Empty payloads.
	case OpRepl:
		req.Epoch = r.U64()
		n := int(r.U32())
		if n < 0 || n > len(payload)/4 { // each record encodes to ≥4 bytes
			return req, fmt.Errorf("%w: %d repl records declared in %d-byte payload", ErrTruncated, n, len(payload))
		}
		req.Records = make([][]byte, n)
		for i := range req.Records {
			req.Records[i] = r.Bytes()
		}
	case OpMapSet:
		req.Map = r.Bytes()
	default:
		return req, fmt.Errorf("%w: 0x%02x", ErrBadOp, h.Op)
	}
	return req, r.Done()
}

// Response is the decoded form of every server→client frame.
type Response struct {
	Op     byte
	Flags  uint16
	Seq    uint64
	Err    string
	Value  []byte // OpGet; aliases the frame payload
	Found  bool
	Cells  []Cell // one OpScan chunk; values alias the frame payload
	Chunk  bool   // more scan chunks follow for this seq
	Clock  uint64 // OpStatus: the store's logical clock
	Cursor uint64 // OpStatus: the node's replication-log length
	Crc    uint32 // OpStatus: rolling checksum of the log prefix at Cursor
	Map    []byte // OpMapGet; aliases the frame payload
}

// Cell is a scan result cell on the wire. It mirrors the visible fields of
// kvstore.Cell (row, column, newest version's timestamp+value).
type Cell struct {
	Row       string
	Column    string
	Timestamp uint64
	Value     []byte
}

// AppendErrResponse encodes an application-error response.
func AppendErrResponse(b *Buffer, op byte, seq uint64, msg string) {
	AppendErrResponseFlags(b, op, seq, 0, msg)
}

// AppendErrResponseFlags encodes an application-error response with extra
// flags (e.g. FlagFenced) OR-ed into FlagError.
func AppendErrResponseFlags(b *Buffer, op byte, seq uint64, flags uint16, msg string) {
	b.BeginFrame(op, FlagError|flags, seq)
	b.String(msg)
	b.EndFrame()
}

// AppendOKResponse encodes an empty success response (mutating ops).
func AppendOKResponse(b *Buffer, op byte, seq uint64) {
	b.BeginFrame(op, 0, seq)
	b.EndFrame()
}

// AppendGetResponse encodes a Get response; the value is only present when
// found.
func AppendGetResponse(b *Buffer, seq uint64, value []byte, found bool) {
	var flags uint16
	if found {
		flags = FlagFound
	}
	b.BeginFrame(OpGet, flags, seq)
	if found {
		b.Bytes32(value)
	}
	b.EndFrame()
}

// AppendScanChunk encodes one streamed scan chunk of store cells. The
// final chunk has final=true (FlagChunk clear); every preceding chunk sets
// FlagChunk so the client keeps reassembling.
func AppendScanChunk(b *Buffer, seq uint64, cells []kvstore.Cell, final bool) {
	var flags uint16
	if !final {
		flags = FlagChunk
	}
	b.BeginFrame(OpScan, flags, seq)
	b.U32(uint32(len(cells)))
	for i := range cells {
		c := &cells[i]
		b.String(c.Row)
		b.String(c.Column)
		b.U64(c.Version.Timestamp)
		b.Bytes32(c.Version.Value)
	}
	b.EndFrame()
}

// AppendStatusResponse encodes an OpStatus response: the store's logical
// clock plus the node's replication-log cursor and its rolling checksum —
// everything a primary needs to resume shipping to a rejoining follower
// (or to detect that the follower's log diverged and needs a reset).
func AppendStatusResponse(b *Buffer, seq uint64, clock, cursor uint64, crc uint32) {
	b.BeginFrame(OpStatus, 0, seq)
	b.U64(clock)
	b.U64(cursor)
	b.U32(crc)
	b.EndFrame()
}

// AppendMapResponse encodes an OpMapGet response carrying an opaque
// encoded partition map.
func AppendMapResponse(b *Buffer, seq uint64, m []byte) {
	b.BeginFrame(OpMapGet, 0, seq)
	b.Bytes32(m)
	b.EndFrame()
}

// AppendHello encodes the one-way connection preamble. It carries the
// client's dedup identity and, implicitly, the protocol version; the
// server never acknowledges it (the first thing a client reads on any
// healthy connection is its first op's response).
func AppendHello(b *Buffer, clientID uint64) {
	AppendRequest(b, &Request{Op: OpHello, ClientID: clientID})
}

// DecodeResponse decodes a server frame. Value and cell values alias
// payload — copy before the backing Buffer is reset.
func DecodeResponse(h Header, payload []byte) (Response, error) {
	resp := Response{
		Op:    h.Op,
		Flags: h.Flags,
		Seq:   h.Seq,
		Found: h.Flags&FlagFound != 0,
		Chunk: h.Flags&FlagChunk != 0,
	}
	r := NewReader(payload)
	if h.Flags&FlagError != 0 {
		resp.Err = r.String()
		return resp, r.Done()
	}
	switch h.Op {
	case OpGet:
		if resp.Found {
			resp.Value = r.Bytes()
		}
	case OpScan:
		n := int(r.U32())
		if n < 0 || n > len(payload)/20 { // each cell encodes to ≥20 bytes
			return resp, fmt.Errorf("%w: %d cells declared in %d-byte payload", ErrTruncated, n, len(payload))
		}
		resp.Cells = make([]Cell, n)
		for i := range resp.Cells {
			c := &resp.Cells[i]
			c.Row = r.String()
			c.Column = r.String()
			c.Timestamp = r.U64()
			c.Value = r.Bytes()
		}
	case OpStatus:
		resp.Clock = r.U64()
		resp.Cursor = r.U64()
		resp.Crc = r.U32()
	case OpMapGet:
		resp.Map = r.Bytes()
	}
	return resp, r.Done()
}
