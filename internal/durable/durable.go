// Package durable gives SmartFlux crash durability: a length-prefixed,
// CRC-checksummed, fsync-batched write-ahead log of every store mutation,
// periodically rotated to a fresh epoch file whose head is the stores
// re-expressed as log records plus the harness/pipeline checkpoint, and
// recovery that replays the newest valid epoch up to the last committed
// wave — truncating any torn final record — so a restarted run continues
// with bit-identical state and decisions (DESIGN.md §6).
//
// The unit of durability is the wave: mutations stream into the log as they
// happen, but recovery only replays records up to the last commit record, so
// a crash mid-wave rolls the store back to the previous wave boundary and
// the re-executed wave reproduces the same timestamps and values.
package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"smartflux/internal/kvstore"
	"smartflux/internal/obs"
)

// FsyncMode selects when the log is flushed to stable storage.
type FsyncMode int

// Fsync modes.
const (
	// FsyncCommit flushes once per committed wave (the default): one fsync
	// covers the whole wave's mutation records plus its commit record.
	FsyncCommit FsyncMode = iota
	// FsyncNever leaves flushing to the OS; a machine crash can lose the
	// un-flushed tail, which recovery absorbs by rolling back to the last
	// commit record that did reach the disk.
	FsyncNever
)

// String implements fmt.Stringer.
func (m FsyncMode) String() string {
	switch m {
	case FsyncCommit:
		return "commit"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("FsyncMode(%d)", int(m))
	}
}

// ParseFsyncMode parses the -fsync flag values.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "commit":
		return FsyncCommit, nil
	case "never":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("durable: unknown fsync mode %q (want commit or never)", s)
	}
}

// DefaultSnapshotEvery is the compaction period, in committed waves, used
// when Options.SnapshotEvery is zero.
const DefaultSnapshotEvery = 64

// Options configures a Manager.
type Options struct {
	// Dir is the durability directory (created if missing).
	Dir string
	// SnapshotEvery is the number of committed waves between rotations to a
	// freshly compacted epoch; 0 means DefaultSnapshotEvery, negative
	// disables rotation (the epoch written by Begin still exists).
	SnapshotEvery int
	// Fsync selects the flush policy.
	Fsync FsyncMode
	// Hook, when non-nil, is consulted before every WAL append (op
	// "wal_append") and epoch rotation (op "snapshot"). A returned error is a
	// simulated crash: the manager goes sticky and every later operation
	// fails with it. fault.Injector.OpHook plugs in here.
	Hook func(op string) error
	// Obs receives durability metrics (nil-safe).
	Obs *obs.Observer
}

// Stats are cumulative counters across the manager's lifetime.
type Stats struct {
	Appends       int
	AppendedBytes int64
	Fsyncs        int
	Commits       int
	Snapshots     int
	Epoch         int
}

// managedStore pairs a registered store with its name. The slice index is
// the store index WAL records carry.
type managedStore struct {
	name string
	s    *kvstore.Store
}

// instruments holds the manager's obs hooks (all nil-safe).
type instruments struct {
	o         *obs.Observer
	appends   *obs.Counter
	bytes     *obs.Counter
	fsyncs    *obs.Counter
	commits   *obs.Counter
	snapshots *obs.Counter
	snapDur   *obs.Histogram
}

// walSpan starts one WAL-operation root span (wal/<kind><seq>, e.g.
// wal/append17), or nil when the observer has no span sinks. seq is the
// operation's cumulative counter value, which makes IDs deterministic: the
// WAL is serialized under the manager's mutex, so a given run produces the
// same append/fsync/snapshot sequence every time.
func (ins *instruments) walSpan(kind string, seq int) *obs.Span {
	if !ins.o.Spanning() {
		return nil
	}
	return ins.o.RootSpan("wal/"+kind+strconv.Itoa(seq), "wal."+kind, "wal")
}

// Manager owns one durability directory: it observes every mutation of the
// registered stores, appends them to the current epoch's WAL, writes a
// commit record per completed wave, and rotates to a freshly compacted epoch
// every SnapshotEvery waves. All methods are safe for concurrent use.
//
// Lifecycle: Open → Register (each store, before Begin) → Begin → per-wave
// Commit → Close. After a crash (injected or real I/O failure) the manager
// is sticky: every operation returns the original error.
type Manager struct {
	mu           sync.Mutex
	opts         Options
	snapEvery    int
	stores       []managedStore
	byName       map[string]int
	epoch        int
	w            *walWriter
	begun        bool
	closed       bool
	sticky       error
	lastSnapWave int
	stats        Stats
	ins          instruments
}

// Open prepares a manager over dir. No files are written until Begin.
func Open(opts Options) (*Manager, error) {
	if opts.Dir == "" {
		return nil, errors.New("durable: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: create dir: %w", err)
	}
	snapEvery := opts.SnapshotEvery
	if snapEvery == 0 {
		snapEvery = DefaultSnapshotEvery
	}
	maxEpoch, err := maxEpochIn(opts.Dir)
	if err != nil {
		return nil, err
	}
	return &Manager{
		opts:      opts,
		snapEvery: snapEvery,
		byName:    make(map[string]int),
		epoch:     maxEpoch,
		ins: instruments{
			o:         opts.Obs,
			appends:   opts.Obs.Counter("smartflux_durable_wal_appends_total"),
			bytes:     opts.Obs.Counter("smartflux_durable_wal_bytes_total"),
			fsyncs:    opts.Obs.Counter("smartflux_durable_fsyncs_total"),
			commits:   opts.Obs.Counter("smartflux_durable_commits_total"),
			snapshots: opts.Obs.Counter("smartflux_durable_snapshots_total"),
			snapDur:   opts.Obs.Histogram("smartflux_durable_snapshot_duration_seconds"),
		},
	}, nil
}

// Register attaches a store under a recovery name. It subscribes to every
// existing table and to all tables the workload creates later; mutations are
// logged only once Begin has run. Registration order defines the store
// indexes WAL records carry, so a resumed process must register the same
// stores in the same order.
func (m *Manager) Register(name string, s *kvstore.Store) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("durable: Register on closed manager")
	}
	if m.begun {
		return errors.New("durable: Register after Begin")
	}
	if name == "" {
		return errors.New("durable: store name is required")
	}
	if _, dup := m.byName[name]; dup {
		return fmt.Errorf("durable: store %q already registered", name)
	}
	idx := len(m.stores)
	m.stores = append(m.stores, managedStore{name: name, s: s})
	m.byName[name] = idx

	observer := kvstore.ObserverFunc(func(mut kvstore.Mutation) { m.onMutation(idx, mut) })
	for _, tn := range s.TableNames() {
		t, err := s.Table(tn)
		if err != nil {
			return fmt.Errorf("durable: register table %q: %w", tn, err)
		}
		t.Subscribe(observer)
	}
	s.OnTableCreate(func(t *kvstore.Table) {
		m.onTableCreate(idx, t)
		t.Subscribe(observer)
	})
	return nil
}

// Begin opens the first epoch: a log whose head holds the registered stores'
// current content and the given wave number and checkpoint payload. Mutations
// observed before Begin are covered by that head; mutations after it stream
// into the log.
func (m *Manager) Begin(wave int, payload []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("durable: Begin on closed manager")
	}
	if m.sticky != nil {
		return m.sticky
	}
	if m.begun {
		return errors.New("durable: Begin called twice")
	}
	if len(m.stores) == 0 {
		return errors.New("durable: Begin with no registered stores")
	}
	if err := m.rotateLocked(wave, payload); err != nil {
		m.sticky = err
		return err
	}
	m.begun = true
	m.lastSnapWave = wave
	return nil
}

// Commit appends a commit record for the completed wave: the per-store
// logical clocks plus the opaque checkpoint payload. Under FsyncCommit it
// then flushes the log, making the whole wave durable with one fsync. Every
// SnapshotEvery committed waves it also rotates to a fresh epoch and deletes
// the files of older ones.
func (m *Manager) Commit(wave int, payload []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("durable: Commit on closed manager")
	}
	if m.sticky != nil {
		return m.sticky
	}
	if !m.begun {
		return errors.New("durable: Commit before Begin")
	}
	if err := m.appendLocked(encodeCommit(wave, m.clocks(), payload)); err != nil {
		return err
	}
	if m.opts.Fsync == FsyncCommit {
		if err := m.syncLocked(); err != nil {
			m.sticky = err
			return err
		}
	}
	m.stats.Commits++
	m.ins.commits.Inc()
	if m.snapEvery > 0 && wave-m.lastSnapWave >= m.snapEvery {
		if err := m.rotateLocked(wave, payload); err != nil {
			m.sticky = err
			return err
		}
		m.lastSnapWave = wave
	}
	return nil
}

// clocks reads the registered stores' logical clocks, in registration order.
func (m *Manager) clocks() []uint64 {
	clocks := make([]uint64, len(m.stores))
	for i, ms := range m.stores {
		clocks[i] = ms.s.Clock()
	}
	return clocks
}

// Err returns the sticky error, or nil while the manager is healthy.
//
//sflint:ignore unused only bench/ calls it; bench/ is frozen until ROADMAP item 4, and item 13(b) deletes it after
func (m *Manager) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sticky
}

// Stats returns the cumulative counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	st.Epoch = m.epoch
	return st
}

// Close flushes and closes the current WAL. It is idempotent. After an
// injected or I/O crash Close releases the file handle best-effort and
// returns nil — the crash error was already surfaced through Err.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	if m.w == nil {
		return nil
	}
	w := m.w
	m.w = nil
	if m.sticky != nil {
		_ = w.f.Close() // crash path: the sticky error is the root cause
		return nil
	}
	return m.closeWriterLocked(w)
}

// closeWriterLocked closes an epoch's writer and accounts its final flush.
func (m *Manager) closeWriterLocked(w *walWriter) error {
	pre := w.fsyncs
	if err := w.close(); err != nil {
		return err
	}
	m.stats.Fsyncs += w.fsyncs - pre
	m.ins.fsyncs.Add(uint64(w.fsyncs - pre))
	return nil
}

// onMutation logs one observed store mutation. Called synchronously from the
// store's notify path, possibly from several goroutines at once.
func (m *Manager) onMutation(storeIdx int, mut kvstore.Mutation) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.begun || m.closed || m.sticky != nil {
		return
	}
	if mut.Kind != kvstore.MutationPut && mut.Kind != kvstore.MutationDelete {
		m.sticky = fmt.Errorf("durable: unknown mutation kind %v", mut.Kind)
		return
	}
	// appendLocked records the error as sticky; the mutation already hit the
	// in-memory store, so the wrapper surfaces the failure on the next call.
	_ = m.appendLocked(encodeMutation(storeIdx, mut))
}

// onTableCreate logs a table-creation record for tables made after Begin.
func (m *Manager) onTableCreate(storeIdx int, t *kvstore.Table) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.begun || m.closed || m.sticky != nil {
		return
	}
	_ = m.appendLocked(encodeCreate(storeIdx, t.Name(), t.MaxVersions()))
}

// appendLocked writes one record and maintains counters; any failure goes
// sticky. Callers hold m.mu.
func (m *Manager) appendLocked(payload []byte) error {
	sp := m.ins.walSpan("append", m.stats.Appends)
	pre := m.w.fsyncs
	n, err := m.w.append(payload)
	if err != nil {
		m.sticky = err
		sp.EndErr(err)
		return err
	}
	m.stats.Appends++
	m.stats.AppendedBytes += int64(n)
	m.stats.Fsyncs += m.w.fsyncs - pre
	m.ins.appends.Inc()
	m.ins.bytes.Add(uint64(n))
	m.ins.fsyncs.Add(uint64(m.w.fsyncs - pre))
	sp.SetBytes(int64(n))
	sp.End()
	return nil
}

// syncLocked flushes the current WAL and maintains counters.
func (m *Manager) syncLocked() error {
	sp := m.ins.walSpan("fsync", m.stats.Fsyncs)
	if err := m.w.sync(); err != nil {
		sp.EndErr(err)
		return err
	}
	m.stats.Fsyncs++
	m.ins.fsyncs.Inc()
	sp.End()
	return nil
}

// rotateLocked starts epoch m.epoch+1: consults the crash hook, publishes the
// new epoch file with its compacted head, switches appends to it, then
// removes every older epoch's file. Callers hold m.mu.
func (m *Manager) rotateLocked(wave int, payload []byte) (err error) {
	sp := m.ins.walSpan("snapshot", m.stats.Snapshots)
	sp.SetWave(wave)
	defer func() { sp.EndErr(err) }()
	if m.opts.Hook != nil {
		if err := m.opts.Hook("snapshot"); err != nil {
			return err
		}
	}
	start := time.Now()
	next := m.epoch + 1
	w, err := m.createEpoch(next, wave, payload)
	if err != nil {
		return err
	}
	old := m.w
	m.w = w
	m.epoch = next
	if old != nil {
		if err := m.closeWriterLocked(old); err != nil {
			return err
		}
	}
	if err := removeEpochsBelow(m.opts.Dir, next); err != nil {
		return err
	}
	m.stats.Snapshots++
	m.ins.snapshots.Inc()
	m.ins.snapDur.Observe(time.Since(start).Seconds())
	return nil
}

// epochOf parses the epoch number out of an epoch file name; ok is false for
// any other file.
func epochOf(name string) (epoch int, ok bool) {
	c, err := fmt.Sscanf(name, "wal-%d.log", &epoch)
	return epoch, err == nil && c == 1 && filepath.Ext(name) == ".log"
}

// maxEpochIn returns the highest epoch number any file in dir carries (0
// when the directory holds no epoch files).
func maxEpochIn(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("durable: scan dir: %w", err)
	}
	max := 0
	for _, e := range entries {
		if epoch, ok := epochOf(e.Name()); ok && epoch > max {
			max = epoch
		}
	}
	return max, nil
}

// removeEpochsBelow deletes the file of every epoch older than keep, plus any
// stray temp files from interrupted rotations.
func removeEpochsBelow(dir string, keep int) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("durable: scan dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		epoch, ok := epochOf(name)
		stale := ok && epoch < keep
		if !stale && filepath.Ext(name) != ".tmp" {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return fmt.Errorf("durable: compact old epoch: %w", err)
		}
	}
	return nil
}
