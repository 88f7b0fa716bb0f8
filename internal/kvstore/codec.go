package kvstore

import (
	"encoding/binary"
	"errors"
	"math"
	"sync"
)

// ErrBadFloat is returned when decoding a value that is not an encoded
// float64.
var ErrBadFloat = errors.New("kvstore: value is not an encoded float64")

// floatWidth is the encoded size of a float64 value.
const floatWidth = 8

// EncodeFloat encodes a float64 as 8 big-endian bytes (IEEE 754 bits).
func EncodeFloat(v float64) []byte {
	return appendFloat(make([]byte, 0, floatWidth), v)
}

// appendFloat appends the EncodeFloat encoding of v to dst.
func appendFloat(dst []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
}

// DecodeFloat decodes a value written by EncodeFloat.
func DecodeFloat(b []byte) (float64, error) {
	if len(b) != floatWidth {
		return 0, ErrBadFloat
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b)), nil
}

// PutFloat writes an encoded float64 at (row, column).
func (t *Table) PutFloat(row, column string, v float64) error {
	return t.Put(row, column, EncodeFloat(v))
}

// GetFloat reads the float64 at (row, column). ok is false when the cell is
// missing or not float-encoded.
func (t *Table) GetFloat(row, column string) (v float64, ok bool) {
	raw, ok := t.Get(row, column)
	if !ok {
		return 0, false
	}
	v, err := DecodeFloat(raw)
	if err != nil {
		return 0, false
	}
	return v, true
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

// floatRows is the pooled result buffer of ScanFloatRows.
type floatRows struct {
	keys []string
	vals []float64
	ok   []bool
}

var floatRowsPool = sync.Pool{New: func() any { return new(floatRows) }}

// ScanFloatRows is the projected read of a step that folds a table row by
// row. In one hold of the table's read lock it reads, for every row in key
// order, the latest value of each of cols decoded as a float64; then, with
// the lock released, it calls fn once. keys lists the rows, and
// vals[i*len(cols)+j] is row keys[i]'s cell cols[j]; ok at the same index is
// false, and the value 0, when that cell is missing or not an encoded
// float64. No Cell is built and no value copied. The slices are pooled, so fn
// must not retain them. It counts as one scan of the float cells it found.
func (t *Table) ScanFloatRows(cols []string, fn func(keys []string, vals []float64, ok []bool)) {
	ins := t.store.ins.Load()
	sp := ins.opSpan("scan", t.name)
	buf := floatRowsPool.Get().(*floatRows)
	keys, vals, oks := buf.keys[:0], buf.vals[:0], buf.ok[:0]
	var found int
	t.readKeys(func(rows []*row) {
		for _, r := range rows {
			keys = append(keys, r.key)
			for _, col := range cols {
				v, err := 0.0, ErrBadFloat
				if versions := r.cell(col); len(versions) > 0 {
					v, err = DecodeFloat(versions[len(versions)-1].Value)
				}
				if err == nil {
					found++
				}
				vals, oks = append(vals, v), append(oks, err == nil)
			}
		}
	})
	ins.scanned(found)
	sp.SetBytes(int64(found * floatWidth))
	sp.End()
	fn(keys, vals, oks)
	clear(keys) // drop the row keys so the pool does not pin them
	buf.keys, buf.vals, buf.ok = keys[:0], vals[:0], oks[:0]
	if cap(vals) <= maxPooledOps {
		floatRowsPool.Put(buf)
	}
}
