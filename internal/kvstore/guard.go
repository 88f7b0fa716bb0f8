package kvstore

// GuardedStore is a view of a Store whose every data operation first asks a
// hook whether it may proceed. Processors route their container access
// through it where an operation must be able to fail for a reason the store
// itself does not know — injected faults (fault.NewStore). Every operation
// returns an error, reads included, the way a remote store's would.
//
// The hook receives the operation name — "create_table" (table resolution),
// "put", "get", "delete", "scan", "apply" — and the table name. Its error
// fails the operation without touching the store, so a refused Put never
// half-applies.
type GuardedStore struct {
	store  *Store
	before func(op, table string) error
}

// Guard interposes the hook on store.
func Guard(store *Store, before func(op, table string) error) *GuardedStore {
	return &GuardedStore{store: store, before: before}
}

// EnsureTable mirrors Store.EnsureTable (op "create_table").
func (g *GuardedStore) EnsureTable(name string, opts TableOptions) (*GuardedTable, error) {
	if err := g.before("create_table", name); err != nil {
		return nil, err
	}
	t, err := g.store.EnsureTable(name, opts)
	if err != nil {
		return nil, err
	}
	return &GuardedTable{t: t, g: g}, nil
}

// Table mirrors Store.Table (op "create_table", sharing the table-resolution
// budget with EnsureTable).
func (g *GuardedStore) Table(name string) (*GuardedTable, error) {
	if err := g.before("create_table", name); err != nil {
		return nil, err
	}
	t, err := g.store.Table(name)
	if err != nil {
		return nil, err
	}
	return &GuardedTable{t: t, g: g}, nil
}

// GuardedTable is the guarded view of one table.
type GuardedTable struct {
	t *Table
	g *GuardedStore
}

func (t *GuardedTable) before(op string) error { return t.g.before(op, t.t.Name()) }

// Put writes a value (op "put").
func (t *GuardedTable) Put(row, column string, value []byte) error {
	if err := t.before("put"); err != nil {
		return err
	}
	return t.t.Put(row, column, value)
}

// PutFloat writes an encoded float64 (op "put").
func (t *GuardedTable) PutFloat(row, column string, v float64) error {
	if err := t.before("put"); err != nil {
		return err
	}
	return t.t.PutFloat(row, column, v)
}

// Get reads the latest value of a cell (op "get").
func (t *GuardedTable) Get(row, column string) ([]byte, bool, error) {
	if err := t.before("get"); err != nil {
		return nil, false, err
	}
	v, ok := t.t.Get(row, column)
	return v, ok, nil
}

// GetFloat reads a float64-encoded cell (op "get"), as Table.GetFloat does;
// a cell that is not float-encoded fails with ErrBadFloat.
func (t *GuardedTable) GetFloat(row, column string) (float64, bool, error) {
	if err := t.before("get"); err != nil {
		return 0, false, err
	}
	s, _, found := t.t.latest(row, column)
	v, ok := s.float()
	if found && !ok {
		return 0, false, ErrBadFloat
	}
	return v, ok, nil
}

// Delete removes a cell (op "delete").
func (t *GuardedTable) Delete(row, column string) error {
	if err := t.before("delete"); err != nil {
		return err
	}
	return t.t.Delete(row, column)
}

// Scan returns matching cells (op "scan").
func (t *GuardedTable) Scan(opts ScanOptions) ([]Cell, error) {
	if err := t.before("scan"); err != nil {
		return nil, err
	}
	return t.t.Scan(opts), nil
}

// Apply applies a batch atomically (op "apply").
func (t *GuardedTable) Apply(b *Batch) error {
	if err := t.before("apply"); err != nil {
		return err
	}
	return t.t.Apply(b)
}
