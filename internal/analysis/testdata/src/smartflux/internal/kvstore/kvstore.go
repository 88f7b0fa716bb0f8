// Package kvstore is a want-harness stand-in for the real store: the
// errdrop analyzer matches callees by this import path.
package kvstore

// Table is a minimal store handle.
type Table struct{}

// Put writes a cell.
func (t *Table) Put(row, column string, value []byte) error { return nil }

// PutFloat writes a float cell.
func (t *Table) PutFloat(row, column string, v float64) error { return nil }

// PutFloatRows writes the grid rows × cols of the floats fill stores.
func (t *Table) PutFloatRows(rows, cols []string, fill func(vals []float64)) error { return nil }

// Delete removes a cell.
func (t *Table) Delete(row, column string) error { return nil }

// Get reads a cell; no error result, safe to call bare.
func (t *Table) Get(row, column string) ([]byte, bool) { return nil, false }

// Open opens a table by name.
func Open(name string) (*Table, error) { return &Table{}, nil }

// Batch is a pooled write batch.
type Batch struct{ ops []string }

// GetBatch returns a batch from the pool.
func GetBatch() *Batch { return &Batch{} }

// Grow reserves room for n ops.
func (b *Batch) Grow(n int) *Batch { return b }

// PutFloat queues a float put.
func (b *Batch) PutFloat(row, column string, v float64) *Batch { return b }

// Len returns the number of queued ops.
func (b *Batch) Len() int { return len(b.ops) }

// Release returns the batch to the pool.
func (b *Batch) Release() {}

// Apply applies a batch.
func (t *Table) Apply(b *Batch) error { return nil }
