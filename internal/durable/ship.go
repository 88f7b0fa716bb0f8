package durable

// Replication record shipping (DESIGN.md §8). A cluster primary replicates
// to its follower by shipping the same payloads the write-ahead log frames on
// disk: recMutation and recCreate records, reused verbatim so the log format
// stays the single source of truth for "what happened to the store". Records
// carry explicit timestamps and apply through the kvstore replay operations,
// which makes application idempotent and order-tolerant — a retried or
// reordered batch converges to the same table state (ReplayPut keeps versions
// timestamp-ordered; AdvanceClock takes the max) — exactly the properties a
// reconnecting shipper and a catch-up stream need.
//
// ReplLog is the in-memory half: an append-only sequence of shipped records
// with a cursor (records appended so far) and a rolling CRC per prefix, so a
// primary and a rejoining follower can cheaply agree on how much history they
// share before streaming the difference.

import (
	"hash/crc32"
	"sync"

	"smartflux/internal/kvstore"
)

// EncodeMutationRecord builds one shippable replication record from an
// observed store mutation. The encoding is the WAL's recMutation payload with
// store index 0 — a replication stream is always about one store.
func EncodeMutationRecord(m kvstore.Mutation) []byte {
	return encodeMutation(0, m)
}

// EncodeCreateRecord builds one shippable table-creation record (the WAL's
// recCreate payload, store index 0).
func EncodeCreateRecord(table string, maxVersions int) []byte {
	return encodeCreate(0, table, maxVersions)
}

// ApplyRecord applies one shipped replication record to a store the way
// recovery applies a logged one (applyDecoded), and raises the store clock to
// a mutation's timestamp via AdvanceClock. Applying the same record twice, or
// records out of timestamp order, converges to the same state.
func ApplyRecord(s *kvstore.Store, payload []byte) error {
	rec, err := decodeRecord(payload)
	if err != nil {
		return err
	}
	if err := applyDecoded(s, rec); err != nil {
		return err
	}
	if rec.kind == recMutation {
		s.AdvanceClock(rec.ts)
	}
	return nil
}

// ReplLog is a node's in-memory replication history: every record the node
// has applied or originated, in application order. It serves two jobs —
// streaming history to a follower that is catching up, and summarizing the
// log as a (cursor, checksum) pair so two nodes can verify they share a
// prefix before resuming mid-stream. Safe for concurrent use.
type ReplLog struct {
	mu   sync.Mutex
	recs [][]byte
	// crcs[i] is the rolling IEEE CRC32 of records [0, i): crcs[0] = 0 and
	// crcs[i+1] folds record i into crcs[i]. Storing every prefix keeps
	// Checksum O(1) at any historical cursor, which the catch-up handshake
	// queries for the follower's cursor, not the primary's head.
	crcs []uint32
}

// NewReplLog creates an empty replication log.
func NewReplLog() *ReplLog {
	return &ReplLog{crcs: []uint32{0}}
}

// Append adds one record and returns the new cursor (total records). The
// record is copied: callers routinely hand in slices aliasing a network read
// buffer (kvnet decodes OpRepl records in place), and the log must outlive
// that buffer's reuse.
func (l *ReplLog) Append(rec []byte) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = append(l.recs, append([]byte(nil), rec...))
	l.crcs = append(l.crcs, crc32.Update(l.crcs[len(l.crcs)-1], crc32.IEEETable, rec))
	return uint64(len(l.recs))
}

// Len returns the cursor: how many records the log holds.
//
//sflint:ignore unused only bench/ calls it; bench/ is frozen until ROADMAP item 4, and item 13(b) deletes it after
func (l *ReplLog) Len() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return uint64(len(l.recs))
}

// Checksum returns the rolling CRC32 of the first cursor records. A cursor
// beyond the log's length returns false: the caller's idea of shared history
// is longer than this log, so no prefix agreement is possible.
func (l *ReplLog) Checksum(cursor uint64) (uint32, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if cursor > uint64(len(l.recs)) {
		return 0, false
	}
	return l.crcs[cursor], true
}

// Status returns the log head as a (cursor, checksum) pair.
func (l *ReplLog) Status() (cursor uint64, crc uint32) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return uint64(len(l.recs)), l.crcs[len(l.crcs)-1]
}

// Since returns the records from cursor to the head — the catch-up stream
// for a follower whose log ends at cursor. The returned slice shares record
// bytes with the log; callers must not mutate them.
func (l *ReplLog) Since(cursor uint64) [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	if cursor >= uint64(len(l.recs)) {
		return nil
	}
	out := make([][]byte, len(l.recs)-int(cursor))
	copy(out, l.recs[cursor:])
	return out
}

// Reset discards all history, returning the log to its freshly-created
// state. Used when a node rejoins with divergent history and must resync
// from scratch.
func (l *ReplLog) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = nil
	l.crcs = l.crcs[:1]
}
