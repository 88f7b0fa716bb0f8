package kvstore

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"sync"
)

// ErrBadFloat is returned when decoding a value that is not an encoded
// float64.
var ErrBadFloat = errors.New("kvstore: value is not an encoded float64")

// floatWidth is the encoded size of a float64 value.
const floatWidth = 8

// EncodeFloat encodes a float64 as 8 big-endian bytes (IEEE 754 bits).
func EncodeFloat(v float64) []byte {
	return binary.BigEndian.AppendUint64(make([]byte, 0, floatWidth), math.Float64bits(v))
}

// DecodeFloat decodes a value written by EncodeFloat.
func DecodeFloat(b []byte) (float64, error) {
	if len(b) != floatWidth {
		return 0, ErrBadFloat
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b)), nil
}

// PutFloat writes an encoded float64 at (row, column), as Put of
// EncodeFloat(v) would, without encoding it.
func (t *Table) PutFloat(row, column string, v float64) error {
	if row == "" || column == "" {
		return ErrEmptyKey
	}
	t.apply("put", []Op{floatOp(row, column, v)})
	return nil
}

// GetFloat reads the float64 at (row, column). ok is false when the cell is
// missing or not float-encoded. It reads the stored bits and allocates
// nothing.
func (t *Table) GetFloat(row, column string) (v float64, ok bool) {
	s, _, _ := t.latest(row, column)
	return s.float()
}

// FloatValue decodes the cell's value as a float64, returning ok=false when
// it is not float-encoded.
func (c Cell) FloatValue() (float64, bool) {
	v, err := DecodeFloat(c.Version.Value)
	if err != nil {
		return 0, false
	}
	return v, true
}

// floatRows is the pooled result buffer of ScanFloatRows, and vals that of
// PutFloatRows.
type floatRows struct {
	vals []float64
	ok   []bool
}

var floatRowsPool = sync.Pool{New: func() any { return new(floatRows) }}

// ScanFloatRows is the projected read of a step that folds a table row by
// row. In one hold of the table's read lock it copies, for every row in key
// order, the latest value of each of cols as a float64 out of the table's
// float array (floats.go); then, with the lock released, it calls fn once.
// keys lists the rows, and vals[i*len(cols)+j] is row keys[i]'s cell cols[j];
// ok at the same index is false, and the value 0, when that cell is missing
// or not an encoded float64. The read gathers through a projection of cols,
// the rows' keys and the slots of their cells, cached until a cell is added
// or deleted, so no row is walked and no column looked up. keys is the
// projection's own slice and vals and ok are pooled: fn must not modify or
// retain them. It counts as one scan of the float cells it found.
// PutFloatRows is its write twin.
func (t *Table) ScanFloatRows(cols []string, fn func(keys []string, vals []float64, ok []bool)) {
	ins := t.store.ins.Load()
	sp := ins.opSpan("scan", t.name)
	buf := floatRowsPool.Get().(*floatRows)
	var keys []string
	vals, oks := buf.vals[:0], buf.ok[:0]
	var found int
	readFloats(t, func(f *floatArray) *floatProjection { return f.projection(cols) },
		func(f *floatArray) *floatProjection { return t.projectionLocked(f, cols) },
		func(f *floatArray, p *floatProjection) {
			keys = p.keys
			vals, oks = slices.Grow(vals, len(p.slots))[:len(p.slots)], slices.Grow(oks, len(p.slots))[:len(p.slots)]
			for k, s := range p.slots {
				v, ok := 0.0, false
				if s >= 0 {
					v, ok = f.vals[s], f.ok[s]
				}
				if ok {
					found++
				}
				vals[k], oks[k] = v, ok
			}
		})
	ins.scanned(found)
	sp.SetBytes(int64(found * floatWidth))
	sp.End()
	fn(keys, vals, oks)
	buf.vals, buf.ok = vals[:0], oks[:0]
	if cap(vals) <= maxPooledOps {
		floatRowsPool.Put(buf)
	}
}

// PutFloatRows is the write of a step that produces a dense grid of floats,
// the write twin of ScanFloatRows: it calls fill once with a zeroed buffer of
// len(rows)*len(cols) floats, then writes vals[i*len(cols)+j] at (rows[i],
// cols[j]) in one hold of the table's write lock. The result is that of
// Apply of a batch of those PutFloats in row-major order, in every respect:
// timestamps, Version, counters, span, and the Mutations observers receive.
// Keys travel once per row and once per column and values as bare floats, so
// no Op is built, read or cleared. The table keeps, for each cell k of its
// last grid, the cell's window and float slot, and the grid's row and column
// lists (t.plan), until a cell is added or deleted or the float array is
// rebuilt. A grid whose lists equal the plan's, by content, writes every cell
// through its entry with no per-cell check; one of as many cells writes cell
// k through entry k when both name the same keys; any other cell is looked
// up, as a batch's are (see write). A batch neither reads nor drops the plan.
//
// Every key is checked before fill runs: an empty one returns ErrEmptyKey
// and leaves the table and the store clock untouched. A grid of zero cells
// is a no-op that does not call fill and reserves no timestamp. The buffer
// is pooled and taken per call, so two calls never share one: fill must not
// retain it.
func (t *Table) PutFloatRows(rows, cols []string, fill func(vals []float64)) error {
	n := len(rows) * len(cols)
	if n == 0 {
		return nil
	}
	if slices.Contains(rows, "") || slices.Contains(cols, "") {
		return ErrEmptyKey
	}
	buf := floatRowsPool.Get().(*floatRows)
	vals := slices.Grow(buf.vals[:0], n)[:n]
	clear(vals)
	fill(vals)
	w := t.newWrite("apply")
	t.mu.Lock()
	w.startLocked(n)
	p := &t.plan
	same := p.valid && len(p.cells) == n
	repeat := same && slices.Equal(p.rows, rows) && slices.Equal(p.cols, cols)
	if !same {
		p.cells = slices.Grow(p.cells[:0], n)[:n]
	}
	p.valid = true // until a resolve adds a cell
	k := 0
	for _, row := range rows {
		for _, col := range cols {
			ref := &p.cells[k]
			if !repeat && (!same || !p.valid || p.rows[k/len(p.cols)] != row || p.cols[k%len(p.cols)] != col) {
				*ref = w.resolve(row, col)
			}
			w.put(ref, row, col, stamp{ts: w.first + uint64(k), w: math.Float64bits(vals[k]), n: floatWidth})
			k++
		}
	}
	if !repeat {
		p.rows, p.cols = append(p.rows[:0], rows...), append(p.cols[:0], cols...)
	}
	t.mu.Unlock()
	w.done()
	buf.vals = vals[:0]
	if cap(vals) <= maxPooledOps {
		floatRowsPool.Put(buf)
	}
	return nil
}
