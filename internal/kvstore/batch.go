package kvstore

import (
	"slices"
	"sync"
)

// Op is one mutation inside a Batch.
type Op struct {
	Row    string
	Column string
	// Value is the new value for puts; ignored for deletes.
	Value []byte
	// Delete marks the op as a cell deletion.
	Delete bool
}

// Batch is an ordered set of mutations applied atomically to one table:
// readers never observe a partially-applied batch, and observers receive the
// batch's mutations in order after it commits.
type Batch struct {
	ops []Op
	// floats holds the encodings PutFloat appends; each of its ops' values
	// is a capacity-capped subslice of it.
	floats []byte
}

// NewBatch creates an empty batch.
func NewBatch() *Batch { return &Batch{} }

// maxPooledOps keeps a batch far beyond a wave's size from pinning pool
// memory: about 1 MiB of op slots.
const maxPooledOps = 1 << 14

var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// GetBatch returns an empty pooled batch, for a producer that builds a batch,
// applies it and drops it: Release it once applied. Apply copies every value
// it stores, so the table keeps nothing of a released batch.
func GetBatch() *Batch { return batchPool.Get().(*Batch) }

// Release empties the batch and returns it to the pool. The batch, and every
// value PutFloat encoded into it, must not be used afterwards.
func (b *Batch) Release() {
	if cap(b.ops) > maxPooledOps || cap(b.floats) > maxPooledOps*floatWidth {
		return
	}
	clear(b.ops) // drop key and value references so the pool does not pin them
	b.ops, b.floats = b.ops[:0], b.floats[:0]
	batchPool.Put(b)
}

// Grow reserves room for n more ops, like strings.Builder.Grow: a producer
// that knows its count builds the batch without regrowing it. The first
// PutFloat that finds the float buffer full sizes it for every op the batch
// has room for, so a batch of plain Puts never allocates one. It returns the
// batch for chaining.
func (b *Batch) Grow(n int) *Batch {
	b.ops = slices.Grow(b.ops, n)
	return b
}

// Put appends a put operation and returns the batch for chaining.
func (b *Batch) Put(row, column string, value []byte) *Batch {
	b.ops = append(b.ops, Op{Row: row, Column: column, Value: value})
	return b
}

// PutFloat appends a put of an encoded float64 value.
func (b *Batch) PutFloat(row, column string, value float64) *Batch {
	if cap(b.floats)-len(b.floats) < floatWidth {
		b.floats = slices.Grow(b.floats, (cap(b.ops)-len(b.ops)+1)*floatWidth)
	}
	off := len(b.floats)
	b.floats = appendFloat(b.floats, value)
	return b.Put(row, column, b.floats[off:len(b.floats):len(b.floats)])
}

// Delete appends a delete operation and returns the batch for chaining.
func (b *Batch) Delete(row, column string) *Batch {
	b.ops = append(b.ops, Op{Row: row, Column: column, Delete: true})
	return b
}

// Len returns the number of operations queued.
func (b *Batch) Len() int { return len(b.ops) }

// Apply applies all operations in b atomically, then notifies observers.
// It validates keys up front so a bad op leaves the table untouched. The
// batch is not changed and may be applied again.
func (t *Table) Apply(b *Batch) error {
	if b == nil || len(b.ops) == 0 {
		return nil
	}
	for _, op := range b.ops {
		if op.Row == "" || op.Column == "" {
			return ErrEmptyKey
		}
	}
	t.apply("apply", b.ops)
	return nil
}
