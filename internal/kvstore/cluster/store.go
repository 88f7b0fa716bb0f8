package cluster

// Store / Table adapt the cluster client to the error-returning store shape
// workflow processors already consume (the shape of kvstore.GuardedStore), so a
// pipeline built against a wrapped single store runs against a cluster by
// swapping the wrapper.

import (
	"smartflux/internal/kvstore"
)

// Store is a cluster-backed view with the error-returning store interface.
type Store struct {
	c *Client
}

// AsStore wraps the client in the store-shaped adapter.
func (c *Client) AsStore() *Store { return &Store{c: c} }

// Client returns the underlying cluster client.
func (s *Store) Client() *Client { return s.c }

// EnsureTable creates the table cluster-wide if missing.
func (s *Store) EnsureTable(name string, opts kvstore.TableOptions) (*Table, error) {
	if err := s.c.CreateTable(name, opts.MaxVersions); err != nil {
		return nil, err
	}
	return &Table{c: s.c, name: name}, nil
}

// Table returns a view of the named table. Existence is not verified up
// front — like an HBase client, a wrong name surfaces on first use.
func (s *Store) Table(name string) (*Table, error) {
	if name == "" {
		return nil, kvstore.ErrEmptyKey
	}
	return &Table{c: s.c, name: name}, nil
}

// Table is a cluster-backed view of one table.
type Table struct {
	c    *Client
	name string
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Put writes a value through the cluster.
func (t *Table) Put(row, column string, value []byte) error {
	return t.c.Put(t.name, row, column, value)
}

// PutFloat writes an encoded float64.
func (t *Table) PutFloat(row, column string, v float64) error {
	return t.c.PutFloat(t.name, row, column, v)
}

// Get reads the latest value of a cell.
func (t *Table) Get(row, column string) ([]byte, bool, error) {
	return t.c.Get(t.name, row, column)
}

// GetFloat reads a float64-encoded cell.
func (t *Table) GetFloat(row, column string) (float64, bool, error) {
	return t.c.GetFloat(t.name, row, column)
}

// Delete removes a cell.
func (t *Table) Delete(row, column string) error {
	return t.c.Delete(t.name, row, column)
}

// Scan returns matching cells merged across shards in key order.
func (t *Table) Scan(opts kvstore.ScanOptions) ([]kvstore.Cell, error) {
	return t.c.Scan(t.name, opts)
}

// Apply applies a batch in order (atomic per shard; see Client.Apply).
func (t *Table) Apply(b *kvstore.Batch) error {
	return t.c.Apply(t.name, b.Ops())
}
