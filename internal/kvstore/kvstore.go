// Package kvstore implements the columnar, versioned key-value store that
// SmartFlux workflow steps communicate through. It is a stand-in for HBase
// (the store used in the paper): a sparse, multi-dimensional sorted map
// indexed by row, column and timestamp, where mapped values are uninterpreted
// byte arrays.
//
// Two features carry the SmartFlux integration:
//
//   - Observers: callbacks fired on every mutation, mirroring the paper's
//     interception of the HBase client libraries (§4.2). The Monitoring
//     component subscribes to these to compute input impact and output error.
//   - Versioning: each cell keeps its most recent versions, so the current
//     and previous states of an element can be retrieved together — the
//     paper's piggy-backed column qualifiers used to fetch previous
//     computation state with ~0% overhead.
package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"smartflux/internal/obs"
)

// Default configuration values.
const (
	// DefaultMaxVersions is the number of cell versions retained per
	// (row, column) when a table does not override it. Three matches the
	// HBase default.
	DefaultMaxVersions = 3
)

// Errors returned by store operations.
var (
	// ErrTableExists is returned by CreateTable for a duplicate name.
	ErrTableExists = errors.New("kvstore: table already exists")
	// ErrTableNotFound is returned when addressing a missing table.
	ErrTableNotFound = errors.New("kvstore: table not found")
	// ErrEmptyKey is returned when a row or column key is empty.
	ErrEmptyKey = errors.New("kvstore: empty row or column key")
)

// MutationKind distinguishes the kinds of mutations observers can see.
type MutationKind int

// Mutation kinds.
const (
	MutationPut MutationKind = iota + 1
	MutationDelete
)

// String implements fmt.Stringer.
func (k MutationKind) String() string {
	switch k {
	case MutationPut:
		return "put"
	case MutationDelete:
		return "delete"
	default:
		return fmt.Sprintf("MutationKind(%d)", int(k))
	}
}

// Mutation describes a single applied change, delivered to observers: the
// value a put wrote, or a delete, whose New is nil.
type Mutation struct {
	Table     string
	Row       string
	Column    string
	New       []byte
	Timestamp uint64
	Kind      MutationKind
}

// Observer receives mutations applied to a table. Implementations must not
// block for long and must not mutate the originating table from within the
// callback (they may read from it).
type Observer interface {
	OnMutation(m Mutation)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(m Mutation)

// OnMutation implements Observer.
func (f ObserverFunc) OnMutation(m Mutation) { f(m) }

var _ Observer = ObserverFunc(nil)

// Version is one timestamped value of a cell.
type Version struct {
	Timestamp uint64
	Value     []byte
}

// Cell is a fully-qualified cell as returned by scans.
type Cell struct {
	Row     string
	Column  string
	Version Version
}

// Key returns the canonical element key "row/column" used by the metric
// layer to identify elements within a data container.
func (c Cell) Key() string { return c.Row + "/" + c.Column }

// Store is a collection of named tables sharing a logical clock. The zero
// value is not usable; create stores with New.
type Store struct {
	mu      sync.RWMutex
	tables  map[string]*Table
	clock   uint64
	created []func(t *Table)

	// ins holds pre-resolved observability counters; nil when detached.
	// An atomic pointer keeps the hot read/write paths lock-free and lets
	// Instrument race safely with in-flight operations.
	ins atomic.Pointer[storeInstruments]
}

// storeInstruments carries the store-level traffic counters and the span
// hook of an attached observer.
type storeInstruments struct {
	o         *obs.Observer
	mutations *obs.Counter
	deletes   *obs.Counter
	gets      *obs.Counter
	scans     *obs.Counter
	scanCells *obs.Counter
	// opSeq numbers op spans store-wide (store/<table>/<op><seq>). The
	// sequence is deterministic only when operations arrive in a
	// deterministic order — the sequential engine, not parallel waves.
	opSeq atomic.Uint64
}

// opSpan starts one store-operation root span, or returns nil when the
// attached observer has no span sinks. Safe on a nil receiver.
func (ins *storeInstruments) opSpan(op, table string) *obs.Span {
	if ins == nil || !ins.o.Spanning() {
		return nil
	}
	seq := ins.opSeq.Add(1) - 1
	return ins.o.RootSpan("store/"+table+"/"+op+strconv.FormatUint(seq, 10), op, "store")
}

// scanned counts one scan that returned cells cells. Safe on a nil receiver.
func (ins *storeInstruments) scanned(cells int) {
	if ins != nil {
		ins.scans.Inc()
		ins.scanCells.Add(uint64(cells))
	}
}

// Instrument attaches an observer recording store traffic: mutation, delete,
// get and scan counters (plus cells returned by scans), and per-operation
// spans when the observer has span sinks. Passing nil detaches; with no
// observer every hook is a single nil-pointer check.
func (s *Store) Instrument(o *obs.Observer) {
	if o == nil || (o.Metrics() == nil && !o.Spanning()) {
		s.ins.Store(nil)
		return
	}
	s.ins.Store(&storeInstruments{
		o:         o,
		mutations: o.Counter(`smartflux_kvstore_ops_total{op="mutate"}`),
		deletes:   o.Counter(`smartflux_kvstore_ops_total{op="delete"}`),
		gets:      o.Counter(`smartflux_kvstore_ops_total{op="get"}`),
		scans:     o.Counter(`smartflux_kvstore_ops_total{op="scan"}`),
		scanCells: o.Counter("smartflux_kvstore_scan_cells_total"),
	})
}

// New creates an empty store.
func New() *Store {
	return &Store{tables: make(map[string]*Table)}
}

// reserveTimestamps advances the logical clock by n and returns the first of
// the n timestamps it reserved, first .. first+n-1.
func (s *Store) reserveTimestamps(n int) (first uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	first = s.clock + 1
	s.clock += uint64(n)
	return first
}

// Clock returns the current value of the store's logical clock: the timestamp
// most recently assigned to a mutation (0 for a fresh store). Durability
// layers record it alongside checkpoints so recovery can restore it.
func (s *Store) Clock() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.clock
}

// SetClock forces the logical clock to c, so the next mutation is stamped
// c+1. It exists for crash recovery — replaying a log reproduces the exact
// timestamp sequence only if the clock also resumes from the recorded value.
// It must not be called concurrently with mutations.
func (s *Store) SetClock(c uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock = c
}

// OnTableCreate registers a hook invoked synchronously whenever a table is
// created, before CreateTable (or EnsureTable) returns it to the caller.
// Existing tables do not retro-fire; callers wanting full coverage should
// walk TableNames first. Durability layers use this to subscribe to every
// table a workload creates without interposing on the creation path.
func (s *Store) OnTableCreate(hook func(t *Table)) {
	if hook == nil {
		return
	}
	s.mu.Lock()
	s.created = append(s.created, hook)
	s.mu.Unlock()
}

// TableOptions configures table creation.
type TableOptions struct {
	// MaxVersions bounds retained versions per cell; 0 means
	// DefaultMaxVersions.
	MaxVersions int
}

// CreateTable creates a new table. It returns ErrTableExists if the name is
// taken.
func (s *Store) CreateTable(name string, opts TableOptions) (*Table, error) {
	if name == "" {
		return nil, ErrEmptyKey
	}
	maxVersions := opts.MaxVersions
	if maxVersions <= 0 {
		maxVersions = DefaultMaxVersions
	}
	s.mu.Lock()
	if _, ok := s.tables[name]; ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrTableExists, name)
	}
	t := &Table{
		name:        name,
		store:       s,
		maxVersions: maxVersions,
		rows:        make(map[string]*row),
	}
	s.tables[name] = t
	hooks := make([]func(t *Table), len(s.created))
	copy(hooks, s.created)
	s.mu.Unlock()
	for _, hook := range hooks {
		hook(t)
	}
	return t, nil
}

// EnsureTable returns the named table, creating it with opts if absent.
func (s *Store) EnsureTable(name string, opts TableOptions) (*Table, error) {
	if t, err := s.Table(name); err == nil {
		return t, nil
	}
	t, err := s.CreateTable(name, opts)
	if err != nil && errors.Is(err, ErrTableExists) {
		return s.Table(name)
	}
	return t, err
}

// Table returns the named table or ErrTableNotFound.
func (s *Store) Table(name string) (*Table, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrTableNotFound, name)
	}
	return t, nil
}

// DropTable removes the named table. Dropping a missing table returns
// ErrTableNotFound.
func (s *Store) DropTable(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; !ok {
		return fmt.Errorf("%w: %q", ErrTableNotFound, name)
	}
	delete(s.tables, name)
	return nil
}

// TableNames returns the sorted names of all tables.
func (s *Store) TableNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tables))
	for name := range s.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Table is a sparse sorted map from (row, column) to versioned values.
type Table struct {
	name        string
	store       *Store
	maxVersions int

	mu        sync.RWMutex
	rows      map[string]*row
	observers []Observer

	// sorted lists the rows in key order; nil means stale. Only adding or
	// removing a row makes it stale, and row sets stabilize quickly in
	// wave-structured workloads, so scans avoid re-sorting every call.
	sorted []*row
	// version counts content changes: every applied put, delete and replay
	// bumps it under mu, so two reads returning the same version saw the
	// same cells. Snapshot caches key on it (see ScanColumns).
	version uint64
	// floats holds the latest value of every cell as a float, for ι/ε
	// snapshots and projected reads; nil until the first (see floats.go).
	floats *floatArray
	// plan holds where each cell of the last grid was found, and the grid's
	// keys (see PutFloatRows).
	plan writePlan
	// resolved counts the cells writes looked up rather than found in the
	// plan; tests read it.
	resolved uint64
	// blobs holds the values longer than inlineWidth of the retained
	// versions, one slot each; free lists the released slots, which are nil,
	// so there are never more slots than long versions the table once held
	// at a time. A blob is never written after it is stored, so reads hand
	// it out as is, and a reused slot gets a new one.
	blobs [][]byte
	free  []uint64
}

// inlineWidth is the longest value a stamp holds in place.
const inlineWidth = 8

// stamp is one version of a cell as its window holds it. It has no pointer,
// so the collector never scans a window. A value of at most inlineWidth
// bytes lives in w, big-endian and left-aligned, so a float's w is its bits;
// a longer one lives in the table's blob slot w. n is the value's length.
type stamp struct {
	ts uint64
	w  uint64
	n  int
}

// float returns the value s holds as a float64, and whether it is an encoded
// one; the value is 0 when it is not.
func (s stamp) float() (float64, bool) {
	if s.n != floatWidth {
		return 0, false
	}
	return math.Float64frombits(s.w), true
}

// stampLocked returns the stamp of value at timestamp ts: a long value is
// copied into a blob slot, a released one if there is one. Callers hold t.mu.
func (t *Table) stampLocked(ts uint64, value []byte) stamp {
	if len(value) <= inlineWidth {
		var b [inlineWidth]byte
		copy(b[:], value)
		return stamp{ts: ts, w: binary.BigEndian.Uint64(b[:]), n: len(value)}
	}
	s := stamp{ts: ts, n: len(value)}
	if n := len(t.free); n > 0 {
		s.w, t.free = t.free[n-1], t.free[:n-1]
		t.blobs[s.w] = bytes.Clone(value)
	} else {
		s.w = uint64(len(t.blobs))
		t.blobs = append(t.blobs, bytes.Clone(value))
	}
	return s
}

// releaseLocked frees the blob slot of s, which has left its window, if it
// has one. Callers hold t.mu.
func (t *Table) releaseLocked(s stamp) {
	if s.n > inlineWidth {
		t.blobs[s.w] = nil
		t.free = append(t.free, s.w)
	}
}

// valueLocked returns the value s holds: a long value's blob, shared, or an
// inline value appended to *buf (see inlineValue). Callers hold t.mu.
func (t *Table) valueLocked(s stamp, buf *[]byte) []byte {
	if s.n > inlineWidth {
		return t.blobs[s.w]
	}
	return inlineValue(s, buf)
}

// inlineValue appends the value s holds inline to *buf and returns it carved,
// capacity-capped, out of *buf; values carved earlier keep their bytes when
// the append moves *buf. An empty value is non-nil.
func inlineValue(s stamp, buf *[]byte) []byte {
	if s.n == 0 {
		return []byte{}
	}
	var b [inlineWidth]byte
	binary.BigEndian.PutUint64(b[:], s.w)
	off := len(*buf)
	*buf = append(*buf, b[:s.n]...)
	return (*buf)[off:len(*buf):len(*buf)]
}

// cellRef is where a write finds a cell: its version window, and its slot in
// the table's float array, or -1 while that array is absent or stale.
type cellRef struct {
	win  *[]stamp
	slot int
}

// writePlan is what the cells of a table's last grid were found at, and the
// grid's row and column lists, copied: entry k is the window and float slot
// of cell k, which named rows[k/len(cols)] and cols[k%len(cols)]. A window
// stays put while no cell is added or deleted, and a slot while the float
// array is not rebuilt: either one clears valid.
type writePlan struct {
	cells      []cellRef
	rows, cols []string
	valid      bool
}

// row is one row's record: its cells, in column order. A point read or a
// write of any of its cells costs one map lookup for the row and a search of
// its columns, unless a grid write repeats its table's last grid's keys (see
// Table.PutFloatRows); a projected read looks nothing up (see
// Table.ScanFloatRows).
type row struct {
	key  string
	cols []string // sorted column keys
	// elems[i] is the element key key+"/"+cols[i], built when the cell is
	// created, so ι snapshots allocate no key strings.
	elems []string
	cells [][]stamp // cells[i] holds cols[i]'s versions, newest-last
	// base is the slot of cols[0] in the table's float array, while that
	// array is current.
	base int
}

// narrowRow is the widest row whose columns are matched with == before any
// binary search. Go's string == returns at once for two strings that share
// their data, and producers name a column with the literal that created it,
// so in a narrow row the match costs a pointer compare per column.
const narrowRow = 8

// index returns the position of column in r.cols, or the position it would
// be inserted at, and whether it is there.
func (r *row) index(column string) (int, bool) {
	if len(r.cols) <= narrowRow {
		for i, col := range r.cols {
			if col == column {
				return i, true
			}
		}
	}
	return slices.BinarySearch(r.cols, column)
}

// cell returns the versions of column, or nil when the row has no such cell.
// Safe on a nil receiver.
func (r *row) cell(column string) []stamp {
	if r == nil {
		return nil
	}
	if i, ok := r.index(column); ok {
		return r.cells[i]
	}
	return nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Subscribe registers an observer for all subsequent mutations.
func (t *Table) Subscribe(o Observer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.observers = append(t.observers, o)
}

// Put writes value at (row, column) with a fresh timestamp and notifies
// observers.
func (t *Table) Put(row, column string, value []byte) error {
	if row == "" || column == "" {
		return ErrEmptyKey
	}
	t.apply("put", []Op{{Row: row, Column: column, Value: value}})
	return nil
}

// apply is the write path behind Put, PutFloat, Delete and Apply; ops have
// valid keys, and deletes carry no value. Op k is cell k of one write (see
// write), found by its row and column keys: a put becomes a stamp, a
// PutFloat op from its bits, a value of at most inlineWidth bytes by one
// big-endian load, a longer one by a copy into a blob slot, and a delete of
// a missing cell still consumes its tick.
func (t *Table) apply(spanOp string, ops []Op) {
	w := t.newWrite(spanOp)
	t.mu.Lock()
	w.startLocked(len(ops))
	for k := range ops {
		op := &ops[k] // the 72-byte Op is not copied per op
		if op.Delete {
			w.delete(k, op.Row, op.Column)
			continue
		}
		ref := w.resolve(op.Row, op.Column)
		s := stamp{ts: w.first + uint64(k), w: op.bits, n: floatWidth}
		if !op.float {
			s = t.stampLocked(s.ts, op.Value)
		}
		w.put(&ref, op.Row, op.Column, s)
	}
	t.mu.Unlock()
	w.done()
}

// write is one hold of a table's write lock by a batch or a float grid (see
// PutFloatRows): the one write core both share. In that hold it reserves one
// timestamp per cell from the store clock (cell k is stamped first+k), writes
// the cells in order and reads the observer list. Mutation records, and one
// arena for the inline values they carry, are built only when the table has
// observers, and delivered after the unlock (done); nothing else is
// allocated. A put looks its row up, once for consecutive cells of one row,
// and searches its columns (resolve), unless a grid finds the cell in its
// table's write plan.
type write struct {
	t          *Table
	ins        *storeInstruments
	sp         *obs.Span
	observers  []Observer
	muts       []Mutation
	arena      []byte // holds the inline values of muts
	first      uint64
	r          *row // the last looked-up cell's row, while the cells name it
	puts, dels uint64
	valueBytes int64
}

// newWrite starts a write to t and its span.
func (t *Table) newWrite(spanOp string) write {
	w := write{t: t, ins: t.store.ins.Load()}
	w.sp = w.ins.opSpan(spanOp, t.name)
	return w
}

// startLocked readies the write of n cells. Callers hold t.mu.
func (w *write) startLocked(n int) {
	t := w.t
	// Subscribe only appends, so this prefix of the list never changes.
	w.observers = t.observers
	if len(w.observers) > 0 {
		w.muts = make([]Mutation, 0, n)
		// Room for an inline value per cell; long ones are blobs.
		w.arena = make([]byte, 0, inlineWidth*n)
	}
	w.first = t.store.reserveTimestamps(n)
}

// resolve finds (rowKey, column) by its row and column keys, adding the cell
// if it is new. Callers hold t.mu.
func (w *write) resolve(rowKey, column string) cellRef {
	t := w.t
	if w.r == nil || w.r.key != rowKey {
		w.r = t.addRowLocked(rowKey)
	}
	t.resolved++
	return t.windowLocked(w.r, column)
}

// put writes s as the latest version of (rowKey, column), the cell ref
// finds. Callers hold t.mu.
func (w *write) put(ref *cellRef, rowKey, column string, s stamp) {
	t := w.t
	versions := *ref.win
	w.puts++
	w.valueBytes += int64(s.n)
	if w.muts != nil {
		value := t.valueLocked(s, &w.arena)
		w.muts = append(w.muts, Mutation{Table: t.name, Row: rowKey, Column: column, New: value, Timestamp: s.ts, Kind: MutationPut})
	}
	t.insertLocked(ref, len(versions), s)
}

// delete removes (rowKey, column) as cell k; a missing cell changes nothing.
// Callers hold t.mu.
func (w *write) delete(k int, rowKey, column string) {
	t := w.t
	if w.r == nil || w.r.key != rowKey {
		w.r = t.rows[rowKey]
	}
	ok := t.deleteLocked(w.r, column)
	w.r = nil // the delete may have removed the row
	if !ok {
		return
	}
	w.dels++
	if w.muts != nil {
		w.muts = append(w.muts, Mutation{Table: t.name, Row: rowKey, Column: column, Timestamp: w.first + uint64(k), Kind: MutationDelete})
	}
}

// done counts and ends the write, and delivers its mutations. Callers have
// released t.mu.
func (w *write) done() {
	if w.ins != nil {
		w.ins.mutations.Add(w.puts)
		w.ins.deletes.Add(w.dels)
	}
	// The span covers the in-memory mutation; durability cost incurred by
	// observers (WAL appends) is attributed to the wal layer's own spans.
	w.sp.SetBytes(w.valueBytes)
	w.sp.End()
	for _, o := range w.observers {
		for _, m := range w.muts {
			o.OnMutation(m)
		}
	}
}

// addRowLocked returns the record of row key, adding an empty one (and
// marking the sorted row list stale) when the row is new. Callers hold t.mu.
func (t *Table) addRowLocked(key string) *row {
	r, ok := t.rows[key]
	if !ok {
		r = &row{key: key}
		t.rows[key] = r
		t.sorted = nil
	}
	return r
}

// windowLocked returns column's cell in r, its version window and float
// slot, creating an empty window, in column order, for a cell about to be
// written for the first time. A window grows by append until it holds
// MaxVersions; its first allocation is capped at DefaultMaxVersions, because
// MaxVersions can come from a kvnet client or a log record and must cost
// nothing until versions accumulate. Callers hold t.mu.
func (t *Table) windowLocked(r *row, column string) cellRef {
	i, ok := r.index(column)
	if !ok {
		r.cols = slices.Insert(r.cols, i, column)
		r.elems = slices.Insert(r.elems, i, r.key+"/"+column)
		r.cells = slices.Insert(r.cells, i, make([]stamp, 0, min(t.maxVersions, DefaultMaxVersions)))
		t.cellsChangedLocked()
	}
	slot := -1
	if f := t.floats; f != nil && !f.stale {
		slot = r.base + i
	}
	return cellRef{&r.cells[i], slot}
}

// insertLocked places s at index idx of the version window c.win, and
// stores the window's latest value in c's float slot. A window below
// MaxVersions grows by one, and may move. A full one is shifted in place:
// the oldest version drops out, and an s older than every retained version
// is dropped itself, which leaves the table, and so its version, unchanged.
// A version that drops out releases its blob. Callers hold t.mu.
func (t *Table) insertLocked(c *cellRef, idx int, s stamp) {
	versions := *c.win
	switch {
	case len(versions) < t.maxVersions:
		versions = append(versions, stamp{})
		copy(versions[idx+1:], versions[idx:])
		versions[idx] = s
		*c.win = versions
	case idx > 0:
		t.releaseLocked(versions[0])
		for j := 1; j < idx; j++ {
			versions[j-1] = versions[j]
		}
		versions[idx-1] = s
	default:
		t.releaseLocked(s)
		return
	}
	t.version++
	t.floatPutLocked(c.slot, versions[len(versions)-1])
}

// Get returns the latest value at (row, column). The second return is false
// when the cell does not exist. A value of at most 8 bytes is a fresh copy;
// a longer one is shared with the table, which never writes it: the caller
// must not modify it.
func (t *Table) Get(row, column string) ([]byte, bool) {
	s, blob, ok := t.latest(row, column)
	switch {
	case !ok:
		return nil, false
	case blob != nil:
		return blob, true
	}
	var buf []byte
	return inlineValue(s, &buf), true
}

// latest returns the stamp of the cell's latest version, with its blob when
// the value is long; ok is false, and s zero, when the cell does not exist.
// It counts and spans as one get.
func (t *Table) latest(row, column string) (s stamp, blob []byte, ok bool) {
	ins := t.store.ins.Load()
	if ins != nil {
		ins.gets.Inc()
	}
	if sp := ins.opSpan("get", t.name); sp != nil {
		defer sp.End()
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	versions := t.rows[row].cell(column)
	if len(versions) == 0 {
		return stamp{}, nil, false
	}
	s = versions[len(versions)-1]
	if s.n > inlineWidth {
		blob = t.blobs[s.w]
	}
	return s, blob, true
}

// GetVersions returns up to max of the most recent versions of a cell,
// newest first. max <= 0 returns all retained versions. Values are handed
// out as Get's are.
func (t *Table) GetVersions(row, column string, max int) []Version {
	t.mu.RLock()
	defer t.mu.RUnlock()
	versions := t.rows[row].cell(column)
	if len(versions) == 0 {
		return nil
	}
	n := len(versions)
	if max > 0 && max < n {
		n = max
	}
	out := make([]Version, 0, n)
	buf := make([]byte, 0, n*inlineWidth)
	for i := len(versions) - 1; i >= len(versions)-n; i-- {
		out = append(out, Version{Timestamp: versions[i].ts, Value: t.valueLocked(versions[i], &buf)})
	}
	return out
}

// History calls fn once per cell, in scan order, with the cell's retained
// versions as the puts that wrote them, oldest first — so replaying what it
// yields into an empty table of the same MaxVersions rebuilds this one
// exactly. It reads the table as ScanVersions does, in one lock hold shared
// with other readers, but hands the collector's values out uncopied. fn runs
// outside the lock. The slice is reused between calls, so fn must not retain
// it; New must not be modified.
func (t *Table) History(fn func(cell []Mutation) error) error {
	var cells []Cell
	t.readKeys(func(rows []*row) { cells, _ = t.collectLocked(rows, ScanOptions{}, true) })
	var puts []Mutation
	for i, c := range cells {
		puts = append(puts, Mutation{Table: t.name, Row: c.Row, Column: c.Column, New: c.Version.Value, Timestamp: c.Version.Timestamp, Kind: MutationPut})
		if i+1 == len(cells) || cells[i+1].Row != c.Row || cells[i+1].Column != c.Column {
			slices.Reverse(puts)
			if err := fn(puts); err != nil {
				return err
			}
			puts = puts[:0]
		}
	}
	return nil
}

// Delete removes a cell entirely and notifies observers. Deleting a missing
// cell is a no-op.
func (t *Table) Delete(row, column string) error {
	if row == "" || column == "" {
		return ErrEmptyKey
	}
	t.apply("delete", []Op{{Row: row, Column: column, Delete: true}})
	return nil
}

// deleteLocked removes column's cell from r (nil for a missing row) under
// t.mu, releasing the blobs of its versions, and removes r itself once it
// holds no cells; it returns false, and changes nothing, when the cell does
// not exist.
func (t *Table) deleteLocked(r *row, column string) bool {
	if r == nil {
		return false
	}
	i, ok := r.index(column)
	if !ok {
		return false
	}
	for _, s := range r.cells[i] {
		t.releaseLocked(s)
	}
	r.cols = slices.Delete(r.cols, i, i+1)
	r.elems = slices.Delete(r.elems, i, i+1)
	r.cells = slices.Delete(r.cells, i, i+1)
	t.cellsChangedLocked()
	if len(r.cols) == 0 {
		delete(t.rows, r.key)
		t.sorted = nil
	}
	t.version++
	return true
}

// Version returns the table's mutation version: a counter that moves on every
// content change and on nothing else.
func (t *Table) Version() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// ScanOptions selects cells for Scan: a whole table, or the columns of it
// with a prefix.
type ScanOptions struct {
	// ColumnPrefix restricts to columns with this prefix ("" = every column).
	ColumnPrefix string
}

// readKeys runs walk over the table's rows in key order under t.mu: read
// locked, so steps scanning one input share it, when the sorted row list is
// current (only a write adding or removing a row makes it stale); else write
// locked, to rebuild the list first.
func (t *Table) readKeys(walk func(rows []*row)) {
	t.mu.RLock()
	if t.sorted != nil {
		defer t.mu.RUnlock()
		walk(t.sorted)
		return
	}
	t.mu.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	walk(t.sortedLocked())
}

// sortedLocked returns the table's rows in key order, rebuilding the list
// when it is stale. Callers hold t.mu for writing.
func (t *Table) sortedLocked() []*row {
	if t.sorted == nil {
		t.sorted = make([]*row, 0, len(t.rows))
		for _, r := range t.rows {
			t.sorted = append(t.sorted, r)
		}
		slices.SortFunc(t.sorted, func(a, b *row) int { return strings.Compare(a.key, b.key) })
	}
	return t.sorted
}

// Scan returns the latest version of every matching cell, ordered by row then
// column (both lexicographic): a snapshot, collected in one lock hold (see
// collectLocked). The returned slices are copies: one arena allocation after
// the hold holds all the value copies, each capacity-capped so appending to
// one cell's value can never scribble over its neighbour's. The collector's
// values are never written, so the copy can happen outside the lock.
func (t *Table) Scan(opts ScanOptions) []Cell { return t.scan(opts, false) }

// ScanVersions is Scan with every retained version of each cell, newest
// first.
func (t *Table) ScanVersions(opts ScanOptions) []Cell { return t.scan(opts, true) }

// scan is Scan, or ScanVersions when all is set.
func (t *Table) scan(opts ScanOptions, all bool) []Cell {
	ins := t.store.ins.Load()
	sp := ins.opSpan("scan", t.name)
	var cells []Cell
	var total int64
	t.readKeys(func(rows []*row) { cells, total = t.collectLocked(rows, opts, all) })
	arena := make([]byte, 0, total)
	for i := range cells {
		off := len(arena)
		arena = append(arena, cells[i].Version.Value...)
		cells[i].Version.Value = arena[off:len(arena):len(arena)]
	}
	ins.scanned(len(cells))
	sp.SetBytes(total)
	sp.End()
	return cells
}

// collectLocked is the one read of cells out of rows, the table's rows in
// key order: the latest version of each cell matching opts — every retained
// version, newest first, when all is set — in (row, column) order, and their
// values' summed bytes. An inline value is carved out of a buffer of this
// call's own (see valueLocked); a long one is the table's blob, never
// written, so both stay valid after t.mu is released. A first pass counts
// the cells (or versions) to size the result, exactly so when opts names no
// column prefix. Callers hold t.mu through readKeys.
func (t *Table) collectLocked(rows []*row, opts ScanOptions, all bool) ([]Cell, int64) {
	n := 0
	for _, r := range rows {
		if !all {
			n += len(r.cols)
			continue
		}
		for _, versions := range r.cells {
			n += len(versions)
		}
	}
	cells := make([]Cell, 0, n)
	buf := make([]byte, 0, n*inlineWidth)
	var valueBytes int64
	for _, r := range rows {
		for j, col := range r.cols {
			if opts.ColumnPrefix != "" && !strings.HasPrefix(col, opts.ColumnPrefix) {
				continue
			}
			versions := r.cells[j]
			if !all {
				versions = versions[len(versions)-1:]
			}
			for i := len(versions) - 1; i >= 0; i-- {
				s := versions[i]
				cells = append(cells, Cell{Row: r.key, Column: col, Version: Version{Timestamp: s.ts, Value: t.valueLocked(s, &buf)}})
				valueBytes += int64(s.n)
			}
		}
	}
	return cells, valueBytes
}
