package kvstore

import (
	"math"
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
	// float marks a PutFloat op: its value is the EncodeFloat encoding of
	// bits, which the table stores as they are, and Value is nil.
	float bool
	bits  uint64
}

// Batch is an ordered set of mutations applied atomically to one table:
// readers never observe a partially-applied batch, and observers receive the
// batch's mutations in order after it commits. A batch is its op slots and
// nothing else: a PutFloat op carries its float's bits, and a Put op the
// caller's slice, which Apply copies where it must.
type Batch struct {
	ops []Op
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

// Release empties the batch and returns it to the pool. The batch must not
// be used afterwards.
func (b *Batch) Release() {
	if cap(b.ops) > maxPooledOps {
		return
	}
	clear(b.ops) // drop key and value references so the pool does not pin them
	b.ops = b.ops[:0]
	batchPool.Put(b)
}

// Grow reserves room for n more ops, like strings.Builder.Grow: a producer
// that knows its count builds the batch, Puts and PutFloats alike, without
// allocating. It returns the batch for chaining.
func (b *Batch) Grow(n int) *Batch {
	b.ops = slices.Grow(b.ops, n)
	return b
}

// Put appends a put operation and returns the batch for chaining.
func (b *Batch) Put(row, column string, value []byte) *Batch {
	b.ops = append(b.ops, Op{Row: row, Column: column, Value: value})
	return b
}

// PutFloat appends a put of an encoded float64 value (EncodeFloat's bytes).
// The op keeps the float's bits, which the table stores without encoding.
func (b *Batch) PutFloat(row, column string, value float64) *Batch {
	b.ops = append(b.ops, floatOp(row, column, value))
	return b
}

// floatOp returns the op of a PutFloat.
func floatOp(row, column string, value float64) Op {
	return Op{Row: row, Column: column, float: true, bits: math.Float64bits(value)}
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
