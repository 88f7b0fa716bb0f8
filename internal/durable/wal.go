package durable

// Log format — the only on-disk format of the durability layer. An epoch file
// (wal-<epoch>.log) is a flat sequence of framed records:
//
//	[4B little-endian payload length][4B IEEE CRC32 of payload][payload]
//
// The payload's first byte is the record type; the rest is type-specific,
// encoded with uvarints and length-prefixed byte strings:
//
//	mutation (1): store uvarint, kind byte (1 put / 2 delete), ts uvarint,
//	              table, row, column strings; puts append the value bytes
//	create  (2):  store uvarint, table string, maxVersions uvarint
//	commit  (3):  wave uvarint, clock count uvarint, per-store clocks,
//	              opaque checkpoint payload bytes
//	stores  (4):  name count uvarint, the registered store names in
//	              registration order — the index space of the store fields
//
// A file starts with its compacted head — one stores record, the registered
// stores' content as create and put records, and the epoch's base commit —
// written in one piece before the file is published (createEpoch); live
// appends follow. Readers stop at the first frame that is short, oversized or
// fails its CRC: everything after a torn or corrupt record is unreachable,
// which is exactly the prefix property recovery needs (DESIGN.md §6).

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"smartflux/internal/kvstore"
)

// Record types.
const (
	recMutation byte = 1
	recCreate   byte = 2
	recCommit   byte = 3
	recStores   byte = 4
)

// Mutation kinds inside recMutation payloads (match kvstore.MutationKind).
const (
	mutPut    byte = 1
	mutDelete byte = 2
)

// frameHeader is the fixed per-record framing overhead.
const frameHeader = 8

// maxRecordBytes bounds a single record so a corrupt length field cannot
// drive a giant allocation during recovery.
const maxRecordBytes = 1 << 28 // 256 MiB

// walRecord is one decoded log record.
type walRecord struct {
	kind byte

	// mutation / create fields
	store       int
	table       string
	row, col    string
	value       []byte
	ts          uint64
	del         bool
	maxVersions int

	// commit fields
	wave    int
	clocks  []uint64
	payload []byte

	// stores field
	names []string
}

// appendUvarint appends v in uvarint encoding.
func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// appendString appends a length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// encodeMutation builds a recMutation payload from an observed (or, during
// compaction, re-derived) store mutation.
func encodeMutation(storeIdx int, m kvstore.Mutation) []byte {
	b := make([]byte, 0, 32+len(m.Table)+len(m.Row)+len(m.Column)+len(m.New))
	b = append(b, recMutation)
	b = appendUvarint(b, uint64(storeIdx))
	del := m.Kind == kvstore.MutationDelete
	kind := mutPut
	if del {
		kind = mutDelete
	}
	b = append(b, kind)
	b = appendUvarint(b, m.Timestamp)
	b = appendString(b, m.Table)
	b = appendString(b, m.Row)
	b = appendString(b, m.Column)
	if !del {
		b = append(b, m.New...)
	}
	return b
}

// encodeCreate builds a recCreate payload.
func encodeCreate(storeIdx int, table string, maxVersions int) []byte {
	b := make([]byte, 0, 16+len(table))
	b = append(b, recCreate)
	b = appendUvarint(b, uint64(storeIdx))
	b = appendString(b, table)
	b = appendUvarint(b, uint64(maxVersions))
	return b
}

// encodeCommit builds a recCommit payload.
func encodeCommit(wave int, clocks []uint64, payload []byte) []byte {
	b := make([]byte, 0, 24+8*len(clocks)+len(payload))
	b = append(b, recCommit)
	b = appendUvarint(b, uint64(wave))
	b = appendUvarint(b, uint64(len(clocks)))
	for _, c := range clocks {
		b = appendUvarint(b, c)
	}
	return append(b, payload...)
}

// encodeStores builds a recStores payload.
func encodeStores(names []string) []byte {
	b := append([]byte(nil), recStores)
	b = appendUvarint(b, uint64(len(names)))
	for _, name := range names {
		b = appendString(b, name)
	}
	return b
}

// payloadReader walks a record payload. A read past the end yields a zero
// value and sets short, so a decoder checks once, after its last field.
type payloadReader struct {
	b     []byte
	pos   int
	short bool
}

var errShortRecord = errors.New("durable: truncated record payload")

func (r *payloadReader) byte() byte {
	if r.short || r.pos >= len(r.b) {
		r.short = true
		return 0
	}
	r.pos++
	return r.b[r.pos-1]
}

func (r *payloadReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.pos:])
	if r.short || n <= 0 {
		r.short = true
		return 0
	}
	r.pos += n
	return v
}

// count reads an element count; each element takes at least one of the
// remaining bytes, so a corrupt count cannot drive a giant allocation.
func (r *payloadReader) count() uint64 {
	n := r.uvarint()
	if n > uint64(len(r.b)-r.pos) {
		r.short = true
		return 0
	}
	return n
}

func (r *payloadReader) str() string {
	n := r.count()
	s := string(r.b[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s
}

func (r *payloadReader) rest() []byte {
	out := append([]byte{}, r.b[r.pos:]...)
	r.pos = len(r.b)
	return out
}

// decodeRecord parses one payload into a walRecord.
func decodeRecord(payload []byte) (walRecord, error) {
	r := payloadReader{b: payload}
	rec := walRecord{kind: r.byte()}
	switch rec.kind {
	case recMutation:
		rec.store = int(r.uvarint())
		rec.del = r.byte() == mutDelete
		rec.ts = r.uvarint()
		rec.table = r.str()
		rec.row = r.str()
		rec.col = r.str()
		if !rec.del {
			rec.value = r.rest()
		}
	case recCreate:
		rec.store = int(r.uvarint())
		rec.table = r.str()
		rec.maxVersions = int(r.uvarint())
	case recCommit:
		rec.wave = int(r.uvarint())
		rec.clocks = make([]uint64, r.count())
		for i := range rec.clocks {
			rec.clocks[i] = r.uvarint()
		}
		rec.payload = r.rest()
	case recStores:
		rec.names = make([]string, r.count())
		for i := range rec.names {
			rec.names[i] = r.str()
		}
	default:
		if !r.short {
			return walRecord{}, fmt.Errorf("durable: unknown record type %d", rec.kind)
		}
	}
	if r.short {
		return walRecord{}, errShortRecord
	}
	return rec, nil
}

// encodeFrame wraps a payload in the on-disk framing.
func encodeFrame(payload []byte) []byte {
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeader:], payload)
	return frame
}

// tornError matches crash errors that carry a torn-write byte count
// (fault.(*Crash) implements it); errors.As keeps the durability layer free
// of a dependency on the fault package.
type tornError interface {
	error
	Torn() int
}

// walWriter appends framed records to one epoch file.
type walWriter struct {
	f      *os.File
	mode   FsyncMode
	hook   func(op string) error
	fsyncs int
}

// walPath names an epoch's file.
func walPath(dir string, epoch int) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.log", epoch))
}

// createEpoch writes an epoch's compacted head to a temp file, fsyncs it,
// renames it into place and fsyncs the directory, then hands the still-open
// descriptor over as the epoch's append target. A crash at any point leaves
// either no wal-<epoch>.log or one with a complete head, plus at worst a
// stray *.tmp that recovery ignores and the next rotation removes. Head
// records bypass walWriter.append: they are no crash-hook consultations and
// count in no append, byte or fsync statistic — a rotation is accounted as
// one snapshot, whatever the store's size.
func (m *Manager) createEpoch(epoch, wave int, payload []byte) (*walWriter, error) {
	final := walPath(m.opts.Dir, epoch)
	f, err := os.OpenFile(final+".tmp", os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: create epoch %d: %w", epoch, err)
	}
	if err = m.writeHead(f, wave, payload); err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(f.Name(), final)
	}
	if err == nil {
		err = syncDir(m.opts.Dir)
	}
	if err != nil {
		_ = f.Close() // the publish error is the root cause
		return nil, fmt.Errorf("durable: publish epoch %d: %w", epoch, err)
	}
	return &walWriter{f: f, mode: m.opts.Fsync, hook: m.opts.Hook}, nil
}

// writeHead streams the registered stores into w as the records that rebuild
// them: the stores header, per store and table (in TableNames order) a create
// record and the table's History as puts, and the base commit. Callers must
// ensure no concurrent writers (the manager compacts at wave boundaries,
// where the engine is quiescent).
func (m *Manager) writeHead(w io.Writer, wave int, payload []byte) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	put := func(rec []byte) error {
		_, err := bw.Write(encodeFrame(rec))
		return err
	}
	names := make([]string, len(m.stores))
	for i, ms := range m.stores {
		names[i] = ms.name
	}
	if err := put(encodeStores(names)); err != nil {
		return err
	}
	clocks := m.clocks()
	for i, ms := range m.stores {
		for _, tn := range ms.s.TableNames() {
			t, err := ms.s.Table(tn)
			if err != nil {
				return fmt.Errorf("durable: compact table %q: %w", tn, err)
			}
			if err := put(encodeCreate(i, tn, t.MaxVersions())); err != nil {
				return err
			}
			err = t.History(func(cell []kvstore.Mutation) error {
				for _, mut := range cell {
					if err := put(encodeMutation(i, mut)); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
	}
	if err := put(encodeCommit(wave, clocks, payload)); err != nil {
		return err
	}
	return bw.Flush()
}

// syncDir fsyncs a directory so a just-renamed file survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durable: open dir for sync: %w", err)
	}
	if err := d.Sync(); err != nil {
		_ = d.Close() // the sync error is the root cause
		return fmt.Errorf("durable: sync dir: %w", err)
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("durable: close dir: %w", err)
	}
	return nil
}

// append frames and writes one record payload, consulting the crash hook
// first. A crash decision carrying a torn byte count persists that prefix of
// the frame before the error propagates — the on-disk shape a real crash
// mid-write leaves behind.
func (w *walWriter) append(payload []byte) (int, error) {
	frame := encodeFrame(payload)
	if w.hook != nil {
		if err := w.hook("wal_append"); err != nil {
			var torn tornError
			if errors.As(err, &torn) && torn.Torn() > 0 {
				n := torn.Torn()
				if n > len(frame) {
					n = len(frame)
				}
				// Best-effort: the process is "dying"; the partial frame is
				// the observable wreckage, not a tracked write.
				if _, werr := w.f.Write(frame[:n]); werr == nil {
					_ = w.f.Sync() // crash simulation: recovery must cope with any outcome
				}
			}
			return 0, err
		}
	}
	if _, err := w.f.Write(frame); err != nil {
		return 0, fmt.Errorf("durable: wal append: %w", err)
	}
	return len(frame), nil
}

// sync flushes the log file to stable storage.
func (w *walWriter) sync() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("durable: wal fsync: %w", err)
	}
	w.fsyncs++
	return nil
}

// close flushes (unless FsyncNever) and closes the log file.
func (w *walWriter) close() error {
	if w.mode != FsyncNever {
		if err := w.sync(); err != nil {
			cerr := w.f.Close()
			if cerr != nil {
				return errors.Join(err, cerr)
			}
			return err
		}
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("durable: wal close: %w", err)
	}
	return nil
}

// walReadInfo describes how a log read terminated.
type walReadInfo struct {
	validBytes int64 // offset of the first unreadable byte
	totalBytes int64
	torn       bool // file ended mid-record or failed a CRC
}

// readWAL decodes every valid record of an epoch file's bytes, stopping at
// the first torn or corrupt frame.
func readWAL(data []byte) ([]walRecord, walReadInfo) {
	info := walReadInfo{totalBytes: int64(len(data))}
	var records []walRecord
	pos := 0
	for {
		if pos == len(data) {
			break // clean end
		}
		if len(data)-pos < frameHeader {
			info.torn = true
			break
		}
		plen := binary.LittleEndian.Uint32(data[pos : pos+4])
		want := binary.LittleEndian.Uint32(data[pos+4 : pos+8])
		if plen > maxRecordBytes || int(plen) > len(data)-pos-frameHeader {
			info.torn = true
			break
		}
		payload := data[pos+frameHeader : pos+frameHeader+int(plen)]
		if crc32.ChecksumIEEE(payload) != want {
			info.torn = true
			break
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			info.torn = true
			break
		}
		records = append(records, rec)
		pos += frameHeader + int(plen)
	}
	info.validBytes = int64(pos)
	return records, info
}
