package durable

// Recovery: read the newest epoch file whose head is intact, keep its
// records up to the last commit, truncate any torn tail, and expose the
// result so callers can rebuild stores and the harness/pipeline checkpoint.
// Records after the last commit belong to a wave that never committed; they
// are discarded so the restarted run re-executes that wave from the boundary
// and reproduces the same timestamps and values.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"smartflux/internal/kvstore"
	"smartflux/internal/obs"
)

// RecoveryStats summarizes what one recovery did.
type RecoveryStats struct {
	// Epoch is the epoch recovery loaded.
	Epoch int
	// SnapshotWave is the wave the epoch was compacted at (its base commit).
	SnapshotWave int
	// Wave is the last committed wave (== SnapshotWave when no commit record
	// followed the base commit).
	Wave int
	// Replayed counts log records after the base commit, up to and including
	// the last commit.
	Replayed int
	// Discarded counts valid log records after the last commit (an
	// uncommitted wave's partial mutations).
	Discarded int
	// TruncatedBytes is the torn/corrupt tail removed from the epoch file.
	TruncatedBytes int64
	// Torn reports whether the log ended in a torn or corrupt record.
	Torn bool
	// Duration is the wall-clock recovery time.
	Duration time.Duration
}

// recoveredStore is one store's reconstruction inputs.
type recoveredStore struct {
	recs  []walRecord // committed create/mutation records, log order
	clock uint64
}

// Recovery is the loaded durable state of one directory.
type Recovery struct {
	// Wave is the last committed wave.
	Wave int
	// Payload is the opaque checkpoint blob of the last commit.
	Payload []byte
	// Stats describes the recovery.
	Stats RecoveryStats

	names  []string // registration order; indexes stores
	stores []recoveredStore
}

// errFormat marks durable state written before an epoch became one log file
// (snapshot-*.snap beside a headerless wal-*.log). No reader for it is kept.
var errFormat = errors.New("the format predates single-file epochs and cannot be read by this binary")

// Recover loads the durable state under dir. It returns (nil, nil) when the
// directory does not exist or holds no epoch file — a fresh start. It picks
// the newest epoch whose head (stores header through base commit) reads back
// intact, falling back to an older one on corruption, keeps the records up
// to the last commit, and truncates any torn final record so the file ends on
// a clean boundary. State in the pre-single-file format is an error, never a
// fresh start.
func Recover(dir string, o *obs.Observer) (*Recovery, error) {
	start := time.Now()
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("durable: scan dir: %w", err)
	}
	var epochs []int
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".snap" {
			return nil, fmt.Errorf("durable: %s: %w", filepath.Join(dir, e.Name()), errFormat)
		}
		if epoch, ok := epochOf(e.Name()); ok {
			epochs = append(epochs, epoch)
		}
	}
	if len(epochs) == 0 {
		return nil, nil
	}
	sort.Sort(sort.Reverse(sort.IntSlice(epochs)))

	var lastE error
	for _, epoch := range epochs {
		path := walPath(dir, epoch)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("durable: read wal: %w", err)
		}
		records, info := readWAL(data)
		if len(records) > 0 && records[0].kind != recStores {
			return nil, fmt.Errorf("durable: %s: %w", path, errFormat)
		}
		base := 0
		for base < len(records) && records[base].kind != recCommit {
			base++
		}
		if base == len(records) {
			lastE = fmt.Errorf("durable: %s: head unreadable past byte %d of %d", path, info.validBytes, info.totalBytes)
			continue
		}
		r, err := newRecovery(records, base)
		if err != nil {
			return nil, fmt.Errorf("%w (%s)", err, path)
		}
		r.Stats.Epoch = epoch
		if info.torn {
			r.Stats.Torn = true
			r.Stats.TruncatedBytes = info.totalBytes - info.validBytes
			if err := os.Truncate(path, info.validBytes); err != nil {
				return nil, fmt.Errorf("durable: truncate torn wal: %w", err)
			}
		}
		r.Stats.Duration = time.Since(start)
		o.Counter("smartflux_durable_recovered_records_total").Add(uint64(r.Stats.Replayed))
		o.Counter("smartflux_durable_discarded_records_total").Add(uint64(r.Stats.Discarded))
		o.Histogram("smartflux_durable_recovery_duration_seconds").Observe(r.Stats.Duration.Seconds())
		return r, nil
	}
	return nil, fmt.Errorf("durable: no valid epoch in %s: %w", dir, lastE)
}

// newRecovery distributes one epoch's records — a stores header first, its
// base commit at index base — per store, up to the last commit.
func newRecovery(records []walRecord, base int) (*Recovery, error) {
	r := &Recovery{names: records[0].names, stores: make([]recoveredStore, len(records[0].names))}
	last := base
	for i := base + 1; i < len(records); i++ {
		if records[i].kind == recCommit {
			last = i
		}
	}
	commit := records[last]
	if len(commit.clocks) != len(r.stores) {
		return nil, fmt.Errorf("durable: commit record has %d clocks, epoch has %d stores", len(commit.clocks), len(r.stores))
	}
	for i := range r.stores {
		r.stores[i].clock = commit.clocks[i]
	}
	for _, rec := range records[1:last] {
		if rec.kind == recCommit {
			continue
		}
		if rec.store < 0 || rec.store >= len(r.stores) {
			return nil, fmt.Errorf("durable: record references store %d, epoch has %d", rec.store, len(r.stores))
		}
		r.stores[rec.store].recs = append(r.stores[rec.store].recs, rec)
	}
	r.Wave, r.Payload = commit.wave, commit.payload
	r.Stats = RecoveryStats{
		SnapshotWave: records[base].wave,
		Wave:         commit.wave,
		Replayed:     last - base,
		Discarded:    len(records) - (last + 1),
	}
	return r, nil
}

// Apply rebuilds one recovered store into s: the store's committed records in
// log order — the epoch's compacted head, then the live appends — then the
// committed logical clock. The target should be empty; replay is idempotent,
// so applying twice (or applying over a store that already absorbed some of
// the same timestamped writes, as a deduplicating network server might)
// converges to the same state.
func (r *Recovery) Apply(name string, s *kvstore.Store) error {
	idx := slices.Index(r.names, name)
	if idx < 0 {
		return fmt.Errorf("durable: recovery has no store %q (has %v)", name, r.names)
	}
	for _, rec := range r.stores[idx].recs {
		if err := applyDecoded(s, rec); err != nil {
			return err
		}
	}
	s.SetClock(r.stores[idx].clock)
	return nil
}

// applyDecoded applies one create or mutation record to a store through the
// kvstore replay operations: idempotent, explicit-timestamp, no observer
// notification, store clock untouched. It is the one place log records turn
// back into store content — recovery and replication both end here.
func applyDecoded(s *kvstore.Store, rec walRecord) error {
	switch rec.kind {
	case recCreate:
		if _, err := s.EnsureTable(rec.table, kvstore.TableOptions{MaxVersions: rec.maxVersions}); err != nil {
			return fmt.Errorf("durable: replay create %q: %w", rec.table, err)
		}
		return nil
	case recMutation:
		t, err := s.EnsureTable(rec.table, kvstore.TableOptions{})
		if err != nil {
			return fmt.Errorf("durable: replay table %q: %w", rec.table, err)
		}
		if rec.del {
			err = t.ReplayDelete(rec.row, rec.col)
		} else {
			err = t.ReplayPut(rec.row, rec.col, rec.value, rec.ts)
		}
		if err != nil {
			return fmt.Errorf("durable: replay %s/%s: %w", rec.row, rec.col, err)
		}
		return nil
	default:
		return fmt.Errorf("durable: record type %d does not apply to a store", rec.kind)
	}
}
