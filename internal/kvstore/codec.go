package kvstore

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"

	"smartflux/internal/metric"
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

// ScanState scans matching cells, decodes them as float64s and returns them
// as a metric.State keyed by the canonical element key "row/column", together
// with the table's mutation version at the time of the scan (one lock hold):
// a later call at the same version would return the same elements, so callers
// may keep the state and skip the scan. Non-float cells are skipped. It is
// the bulk numeric read behind ι/ε observation: no cell value is copied, the
// element keys are the ones each cell was created with, and nothing is
// allocated but the result.
//
// Cells are visited in (row, column) order, which is element-key order except
// where one row key is a proper prefix of another followed by a byte below
// '/' ("a" vs "a-b"); such output is re-sorted. Two cells whose element keys
// collide (row "a/b" column "c", row "a" column "b/c") yield one element: the
// later cell in (row, column) order wins.
func (t *Table) ScanState(opts ScanOptions) (elems metric.State, version uint64) {
	t.readKeys(func(rows []*row) { elems, version = t.stateLocked(rows, opts) })
	if ins := t.store.ins.Load(); ins != nil {
		ins.scans.Inc()
		ins.scanCells.Add(uint64(len(elems)))
	}
	return elems, version
}

// stateLocked is ScanState's walk over rows, the table's rows in key order.
// Callers hold t.mu through readKeys.
func (t *Table) stateLocked(rows []*row, opts ScanOptions) (metric.State, uint64) {
	var n int
	for _, r := range rows {
		switch {
		case !opts.matchesRow(r.key):
		case opts.ColumnPrefix == "":
			n += len(r.cols)
		default:
			for _, col := range r.cols {
				if strings.HasPrefix(col, opts.ColumnPrefix) {
					n++
				}
			}
		}
	}
	elems := make([]metric.Elem, 0, n)
	sorted := true
	for _, r := range rows {
		if !opts.matchesRow(r.key) {
			continue
		}
		first := len(elems)
		for i, col := range r.cols {
			if !strings.HasPrefix(col, opts.ColumnPrefix) {
				continue
			}
			versions := r.cells[i]
			v, err := DecodeFloat(versions[len(versions)-1].Value)
			if err != nil {
				continue
			}
			elems = append(elems, metric.Elem{Key: r.elems[i], Val: v})
		}
		// Keys ascend within a row, so order can only break between rows.
		if first > 0 && first < len(elems) && elems[first-1].Key >= elems[first].Key {
			sorted = false
		}
	}
	if !sorted {
		elems = metric.NewState(elems)
	}
	return elems, t.version
}
