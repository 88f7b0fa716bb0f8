package kvstore

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
}

// NewBatch creates an empty batch.
func NewBatch() *Batch { return &Batch{} }

// Put appends a put operation and returns the batch for chaining.
func (b *Batch) Put(row, column string, value []byte) *Batch {
	b.ops = append(b.ops, Op{Row: row, Column: column, Value: value})
	return b
}

// PutFloat appends a put of an encoded float64 value.
func (b *Batch) PutFloat(row, column string, value float64) *Batch {
	return b.Put(row, column, EncodeFloat(value))
}

// Delete appends a delete operation and returns the batch for chaining.
func (b *Batch) Delete(row, column string) *Batch {
	b.ops = append(b.ops, Op{Row: row, Column: column, Delete: true})
	return b
}

// Len returns the number of operations queued.
func (b *Batch) Len() int { return len(b.ops) }

// Apply applies all operations in b atomically, then notifies observers.
// It validates keys up front so a bad op leaves the table untouched.
func (t *Table) Apply(b *Batch) error {
	if b == nil || len(b.ops) == 0 {
		return nil
	}
	for _, op := range b.ops {
		if op.Row == "" || op.Column == "" {
			return ErrEmptyKey
		}
	}
	ins := t.store.ins.Load()
	sp := ins.opSpan("apply", t.name)
	muts := make([]Mutation, 0, len(b.ops))
	t.mu.Lock()
	for _, op := range b.ops {
		ts := t.store.nextTimestamp()
		if op.Delete {
			old, ok := t.deleteLocked(op.Row, op.Column)
			if !ok {
				continue
			}
			muts = append(muts, Mutation{
				Table:     t.name,
				Row:       op.Row,
				Column:    op.Column,
				Old:       old,
				Timestamp: ts,
				Kind:      MutationDelete,
			})
			continue
		}
		muts = append(muts, t.putLocked(op.Row, op.Column, op.Value, ts))
	}
	t.mu.Unlock()
	if ins != nil {
		var dels uint64
		for _, m := range muts {
			if m.Kind == MutationDelete {
				dels++
			}
		}
		ins.mutations.Add(uint64(len(muts)) - dels)
		ins.deletes.Add(dels)
	}
	if sp != nil {
		var n int64
		for _, m := range muts {
			n += int64(len(m.New))
		}
		sp.SetBytes(n)
		sp.End()
	}
	t.notify(muts)
	return nil
}
