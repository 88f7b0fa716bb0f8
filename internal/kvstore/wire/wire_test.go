package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	mrand "math/rand"
	"slices"
	"testing"

	"smartflux/internal/kvstore"
)

// encode appends one request frame and returns its bytes.
func encode(t *testing.T, req *Request) []byte {
	t.Helper()
	b := GetBuffer()
	defer b.Release()
	AppendRequest(b, req)
	return append([]byte(nil), b.Bytes()...)
}

// decodeOne reads one frame from raw and decodes it as a request.
func decodeOne(t *testing.T, raw []byte) (Request, error) {
	t.Helper()
	buf := GetBuffer()
	defer buf.Release()
	h, payload, err := ReadFrame(bytes.NewReader(raw), buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	return DecodeRequest(h, payload)
}

// sampleRequests covers every request op with representative field shapes.
func sampleRequests() []Request {
	return []Request{
		{Op: OpHello, ClientID: 0xdeadbeefcafe},
		{Op: OpCreateTable, Seq: 1, Table: "t", MaxVers: 7},
		{Op: OpCreateTable, Seq: 2, Table: "", MaxVers: 0},
		{Op: OpPut, Seq: 3, Table: "t", Row: "r", Column: "c", Value: []byte("v")},
		{Op: OpPut, Seq: 4, Table: "t", Row: "", Column: "", Value: nil},
		{Op: OpGet, Seq: 5, Table: "t", Row: "row key", Column: "qualifier"},
		{Op: OpDelete, Seq: 6, Table: "t", Row: "r", Column: "c"},
		{Op: OpScan, Seq: 7, Table: "t", Scan: kvstore.ScanOptions{ColumnPrefix: "q"}},
		{Op: OpScan, Seq: 8, Table: "t"},
		{Op: OpApply, Seq: 9, Table: "t", Ops: []kvstore.Op{
			{Row: "r1", Column: "c1", Value: []byte("x")},
			{Row: "r2", Column: "c2", Delete: true},
			{Row: "", Column: "", Value: []byte{}},
		}},
		{Op: OpApply, Seq: 10, Table: "t"},
		{Op: OpPing, Seq: 11},
		{Op: OpStatus, Seq: 12},
		{Op: OpRepl, Seq: 13, Records: [][]byte{[]byte("rec-one"), {}, []byte("rec-three")}},
		{Op: OpRepl, Seq: 14},
		{Op: OpRepl, Seq: 18, Epoch: 7, Records: [][]byte{[]byte("stamped")}},
		{Op: OpMapGet, Seq: 15},
		{Op: OpMapSet, Seq: 16, Map: []byte(`{"version":3}`)},
		{Op: OpScan, Seq: 17, Table: "t", Flags: FlagVersions},
	}
}

func requestsEquivalent(a, b *Request) bool {
	if a.Op != b.Op || a.Flags != b.Flags || a.Seq != b.Seq ||
		a.ClientID != b.ClientID || a.Table != b.Table || a.Row != b.Row ||
		a.Column != b.Column || a.MaxVers != b.MaxVers || a.Scan != b.Scan ||
		a.Epoch != b.Epoch {
		return false
	}
	if !bytes.Equal(a.Value, b.Value) || len(a.Ops) != len(b.Ops) {
		return false
	}
	for i := range a.Ops {
		x, y := a.Ops[i], b.Ops[i]
		if x.Row != y.Row || x.Column != y.Column || x.Delete != y.Delete || !bytes.Equal(x.Value, y.Value) {
			return false
		}
	}
	if len(a.Records) != len(b.Records) || !bytes.Equal(a.Map, b.Map) {
		return false
	}
	for i := range a.Records {
		if !bytes.Equal(a.Records[i], b.Records[i]) {
			return false
		}
	}
	return true
}

func TestRequestRoundTrip(t *testing.T) {
	for _, req := range sampleRequests() {
		raw := encode(t, &req)
		got, err := decodeOne(t, raw)
		if err != nil {
			t.Fatalf("%s: decode: %v", OpName(req.Op), err)
		}
		if !requestsEquivalent(&req, &got) {
			t.Errorf("%s: round trip mismatch:\n in  %+v\n out %+v", OpName(req.Op), req, got)
		}
	}
}

// TestFlagBitsAreStable pins every flag's header bit: a frame that is sent
// today must keep its bytes, so a retired flag's bit stays unassigned.
func TestFlagBitsAreStable(t *testing.T) {
	got := []uint16{FlagError, FlagFound, FlagChunk, FlagVersions, FlagFenced}
	want := []uint16{1, 2, 4, 16, 32}
	if !slices.Equal(got, want) {
		t.Fatalf("flag bits = %v, want %v", got, want)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	buf := GetBuffer()
	defer buf.Release()
	AppendErrResponse(buf, OpPut, 1, "boom")
	AppendErrResponseFlags(buf, OpRepl, 9, FlagFenced, "stale epoch")
	AppendOKResponse(buf, OpDelete, 2)
	AppendGetResponse(buf, 3, []byte("value"), true)
	AppendGetResponse(buf, 4, nil, false)
	cells := []kvstore.Cell{
		{Row: "r1", Column: "c1", Version: kvstore.Version{Timestamp: 11, Value: []byte("a")}},
		{Row: "r2", Column: "c2", Version: kvstore.Version{Timestamp: 12, Value: nil}},
	}
	AppendScanChunk(buf, 5, cells, false)
	AppendScanChunk(buf, 5, nil, true)

	r := bytes.NewReader(buf.Bytes())
	scratch := GetBuffer()
	defer scratch.Release()
	next := func() Response {
		t.Helper()
		h, payload, err := ReadFrame(r, scratch)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		resp, err := DecodeResponse(h, payload)
		if err != nil {
			t.Fatalf("DecodeResponse: %v", err)
		}
		return resp
	}

	if resp := next(); resp.Err != "boom" || resp.Op != OpPut || resp.Seq != 1 {
		t.Errorf("err response mismatch: %+v", resp)
	}
	if resp := next(); resp.Err != "stale epoch" || resp.Flags&FlagFenced == 0 || resp.Op != OpRepl {
		t.Errorf("fenced response mismatch: %+v", resp)
	}
	if resp := next(); resp.Err != "" || resp.Op != OpDelete || resp.Seq != 2 {
		t.Errorf("ok response mismatch: %+v", resp)
	}
	if resp := next(); !resp.Found || string(resp.Value) != "value" {
		t.Errorf("get response mismatch: %+v", resp)
	}
	if resp := next(); resp.Found || resp.Value != nil {
		t.Errorf("get miss mismatch: %+v", resp)
	}
	chunk := next()
	if !chunk.Chunk || len(chunk.Cells) != 2 {
		t.Fatalf("scan chunk mismatch: %+v", chunk)
	}
	if c := chunk.Cells[0]; c.Row != "r1" || c.Column != "c1" || c.Timestamp != 11 || string(c.Value) != "a" {
		t.Errorf("cell mismatch: %+v", c)
	}
	if final := next(); final.Chunk || len(final.Cells) != 0 {
		t.Errorf("final chunk mismatch: %+v", final)
	}
	if _, _, err := ReadFrame(r, scratch); err != io.EOF {
		t.Errorf("trailing read = %v, want io.EOF", err)
	}
}

// TestClusterResponseRoundTrip covers the cluster control-plane responses:
// status (clock + log cursor + cursor checksum) and partition-map payloads.
func TestClusterResponseRoundTrip(t *testing.T) {
	buf := GetBuffer()
	defer buf.Release()
	AppendOKResponse(buf, OpPing, 1)
	AppendStatusResponse(buf, 2, 12345, 678, 0xdeadbeef)
	AppendMapResponse(buf, 3, []byte(`{"version":9,"shards":[]}`))
	AppendMapResponse(buf, 4, nil)
	AppendOKResponse(buf, OpRepl, 5)

	r := bytes.NewReader(buf.Bytes())
	scratch := GetBuffer()
	defer scratch.Release()
	next := func() Response {
		t.Helper()
		h, payload, err := ReadFrame(r, scratch)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		resp, err := DecodeResponse(h, payload)
		if err != nil {
			t.Fatalf("DecodeResponse: %v", err)
		}
		return resp
	}

	if resp := next(); resp.Op != OpPing || resp.Err != "" || resp.Seq != 1 {
		t.Errorf("ping response mismatch: %+v", resp)
	}
	if resp := next(); resp.Op != OpStatus || resp.Clock != 12345 || resp.Cursor != 678 || resp.Crc != 0xdeadbeef {
		t.Errorf("status response mismatch: %+v", resp)
	}
	if resp := next(); resp.Op != OpMapGet || string(resp.Map) != `{"version":9,"shards":[]}` {
		t.Errorf("map response mismatch: %+v", resp)
	}
	if resp := next(); resp.Op != OpMapGet || len(resp.Map) != 0 {
		t.Errorf("empty map response mismatch: %+v", resp)
	}
	if resp := next(); resp.Op != OpRepl || resp.Err != "" {
		t.Errorf("repl ok response mismatch: %+v", resp)
	}
}

// TestTruncatedFrames feeds every proper prefix of a valid frame stream to
// ReadFrame: none may succeed, and all must classify as EOF-family errors
// (clean EOF only at offset 0).
func TestTruncatedFrames(t *testing.T) {
	raw := encode(t, &Request{Op: OpPut, Seq: 9, Table: "t", Row: "r", Column: "c", Value: []byte("torn")})
	buf := GetBuffer()
	defer buf.Release()
	for n := 0; n < len(raw); n++ {
		_, _, err := ReadFrame(bytes.NewReader(raw[:n]), buf)
		switch {
		case n == 0 && err != io.EOF:
			t.Errorf("prefix 0: err = %v, want io.EOF", err)
		case n > 0 && !errors.Is(err, io.ErrUnexpectedEOF) && err != io.EOF:
			t.Errorf("prefix %d: err = %v, want unexpected EOF", n, err)
		}
	}
}

// TestTornPayloads corrupts the declared payload length so the payload no
// longer matches its op's field layout: decoding must fail with
// ErrTruncated, never panic or misread.
func TestTornPayloads(t *testing.T) {
	for _, req := range sampleRequests() {
		raw := encode(t, &req)
		// Shrink the payload: drop the last byte but keep the stream
		// consistent by also patching the length field down by one.
		if raw[14] == 0 && raw[15] == 0 && raw[16] == 0 && raw[17] == 0 {
			continue // empty payload; nothing to tear
		}
		torn := append([]byte(nil), raw[:len(raw)-1]...)
		declared := binary.LittleEndian.Uint32(torn[14:18])
		binary.LittleEndian.PutUint32(torn[14:18], declared-1)
		if _, err := decodeOne(t, torn); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: torn decode err = %v, want ErrTruncated", OpName(req.Op), err)
		}
		// Grow the payload: extra trailing byte must be rejected too.
		grown := append(append([]byte(nil), raw...), 0xEE)
		binary.LittleEndian.PutUint32(grown[14:18], declared+1)
		if _, err := decodeOne(t, grown); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: grown decode err = %v, want ErrTruncated", OpName(req.Op), err)
		}
	}
}

func TestHeaderRejections(t *testing.T) {
	valid := encode(t, &Request{Op: OpGet, Seq: 1, Table: "t", Row: "r", Column: "c"})

	badMagic := append([]byte(nil), valid...)
	badMagic[0] = 'g' // a gob stream never opens with the magic
	buf := GetBuffer()
	defer buf.Release()
	if _, _, err := ReadFrame(bytes.NewReader(badMagic), buf); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic err = %v, want ErrBadMagic", err)
	}

	badVersion := append([]byte(nil), valid...)
	badVersion[2] = Version + 1
	h, _, err := ReadFrame(bytes.NewReader(badVersion), buf)
	if !errors.Is(err, ErrVersion) {
		t.Errorf("bad version err = %v, want ErrVersion", err)
	}
	// The parsed header must accompany ErrVersion so a server can address
	// its rejection frame to the offending seq.
	if h.Op != OpGet || h.Seq != 1 {
		t.Errorf("ErrVersion header = %+v, want op/seq preserved", h)
	}
	// A v2 peer, whose OpScan payload carried a row range and a limit, is
	// refused the same way.
	badVersion[2] = 2
	if _, _, err := ReadFrame(bytes.NewReader(badVersion), buf); !errors.Is(err, ErrVersion) {
		t.Errorf("v2 frame err = %v, want ErrVersion", err)
	}

	badOp := append([]byte(nil), valid...)
	badOp[3] = byte(opMax)
	if _, _, err := ReadFrame(bytes.NewReader(badOp), buf); !errors.Is(err, ErrBadOp) {
		t.Errorf("bad op err = %v, want ErrBadOp", err)
	}
	badOp[3] = 0
	if _, _, err := ReadFrame(bytes.NewReader(badOp), buf); !errors.Is(err, ErrBadOp) {
		t.Errorf("zero op err = %v, want ErrBadOp", err)
	}

	// An oversized length field is stream corruption, not an allocation
	// request: it must be rejected before any payload read.
	oversized := append([]byte(nil), valid[:HeaderSize]...)
	binary.LittleEndian.PutUint32(oversized[14:18], MaxPayload+1)
	if _, _, err := ReadFrame(bytes.NewReader(oversized), buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized length err = %v, want ErrFrameTooLarge", err)
	}
}

// TestDeclaredCountGuards checks that hostile element counts (huge scan cell
// or batch op counts in small payloads) are rejected before allocation.
func TestDeclaredCountGuards(t *testing.T) {
	b := GetBuffer()
	defer b.Release()
	b.BeginFrame(OpApply, 0, 1)
	b.String("t")
	b.U32(1 << 30) // declares a billion ops in a tiny payload
	b.EndFrame()
	buf := GetBuffer()
	defer buf.Release()
	h, payload, err := ReadFrame(bytes.NewReader(b.Bytes()), buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if _, err := DecodeRequest(h, payload); !errors.Is(err, ErrTruncated) {
		t.Errorf("hostile apply count err = %v, want ErrTruncated", err)
	}

	b.Reset()
	b.BeginFrame(OpScan, 0, 2)
	b.U32(1 << 30) // declares a billion cells
	b.EndFrame()
	h, payload, err = ReadFrame(bytes.NewReader(b.Bytes()), buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if _, err := DecodeResponse(h, payload); !errors.Is(err, ErrTruncated) {
		t.Errorf("hostile cell count err = %v, want ErrTruncated", err)
	}
}

// TestZeroCopyDecode pins the zero-copy contract: decoded values alias the
// frame payload rather than copying it.
func TestZeroCopyDecode(t *testing.T) {
	raw := encode(t, &Request{Op: OpPut, Seq: 1, Table: "t", Row: "r", Column: "c", Value: []byte("zero-copy")})
	buf := GetBuffer()
	defer buf.Release()
	h, payload, err := ReadFrame(bytes.NewReader(raw), buf)
	if err != nil {
		t.Fatal(err)
	}
	req, err := DecodeRequest(h, payload)
	if err != nil {
		t.Fatal(err)
	}
	payload[len(payload)-1] = '!' // mutating the payload must show through
	if string(req.Value) != "zero-cop!" {
		t.Errorf("decoded value does not alias payload: %q", req.Value)
	}
}

// TestBufferFrameStream checks multi-frame accumulation (the client's
// coalesced flush path) and pooled reuse.
func TestBufferFrameStream(t *testing.T) {
	b := GetBuffer()
	AppendHello(b, 7)
	AppendRequest(b, &Request{Op: OpGet, Seq: 1, Table: "t", Row: "r", Column: "c"})
	AppendRequest(b, &Request{Op: OpDelete, Seq: 2, Table: "t", Row: "r", Column: "c"})

	r := bytes.NewReader(b.Bytes())
	scratch := GetBuffer()
	var ops []byte
	for {
		h, payload, err := ReadFrame(r, scratch)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if _, err := DecodeRequest(h, payload); err != nil {
			t.Fatalf("DecodeRequest: %v", err)
		}
		ops = append(ops, h.Op)
	}
	if want := []byte{OpHello, OpGet, OpDelete}; !bytes.Equal(ops, want) {
		t.Errorf("frame stream ops = %v, want %v", ops, want)
	}
	scratch.Release()
	b.Release()
	if got := GetBuffer(); got.Len() != 0 {
		t.Errorf("pooled buffer not reset: %d bytes", got.Len())
	}
}

// TestRandomizedRoundTrip is the property test: seeded random requests must
// survive encode → frame → decode bit-exactly.
func TestRandomizedRoundTrip(t *testing.T) {
	rng := mrand.New(mrand.NewSource(7))
	randStr := func(n int) string {
		s := make([]byte, rng.Intn(n))
		for i := range s {
			s[i] = byte(rng.Intn(256))
		}
		return string(s)
	}
	randBytes := func(n int) []byte {
		s := make([]byte, rng.Intn(n))
		for i := range s {
			s[i] = byte(rng.Intn(256))
		}
		return s
	}
	ops := []byte{OpCreateTable, OpPut, OpGet, OpDelete, OpScan, OpApply}
	for i := 0; i < 300; i++ {
		req := Request{Op: ops[rng.Intn(len(ops))], Seq: rng.Uint64()}
		req.Table = randStr(12)
		switch req.Op {
		case OpCreateTable:
			req.MaxVers = rng.Intn(100)
		case OpPut:
			req.Row, req.Column, req.Value = randStr(24), randStr(24), randBytes(1024)
		case OpGet, OpDelete:
			req.Row, req.Column = randStr(24), randStr(24)
		case OpScan:
			req.Scan = kvstore.ScanOptions{ColumnPrefix: randStr(8)}
		case OpApply:
			req.Ops = make([]kvstore.Op, rng.Intn(20))
			for j := range req.Ops {
				req.Ops[j] = kvstore.Op{Row: randStr(16), Column: randStr(16), Delete: rng.Intn(2) == 0}
				if !req.Ops[j].Delete {
					req.Ops[j].Value = randBytes(256)
				}
			}
		}
		raw := encode(t, &req)
		got, err := decodeOne(t, raw)
		if err != nil {
			t.Fatalf("case %d (%s): decode: %v", i, OpName(req.Op), err)
		}
		if !requestsEquivalent(&req, &got) {
			t.Fatalf("case %d (%s): round trip mismatch:\n in  %+v\n out %+v", i, OpName(req.Op), req, got)
		}
	}
}
