package kvstore

import (
	"math"
	"slices"
	"testing"

	"smartflux/internal/metric"
)

// FuzzTableColumns runs a byte-driven script against one table and the
// reference model (refTable) — float puts, puts and ReplayPuts at explicit
// timestamps of values 0 to 19 bytes long, across the 8 bytes a version holds
// inline, deletes, DropTable followed by a recreate, a batch repeating the
// last few puts and deletes with fresh values, which a second such batch in a
// row writes through the table's plan, and a float grid (PutFloatRows) of
// rows, duplicates included, × a column subset, or of the last batch's or
// grid's keys when they form a grid, which it writes through the plan that
// write left. After every operation it
// requires Get, GetVersions and History to equal the model, and the table's
// blob slots to match its versions (checkBlobs); and, unless the operation
// skips them, the reads that build the float array: ScanColumns to equal the
// float cells a plain Scan returns (keyed, sorted, the later of two colliding
// keys kept; see floatColumns) at the model's version, for a whole-table, a
// column-prefix and a row-prefix read; and ScanFloatRows of two column lists,
// one naming a column no row has, to equal the rows and cells Scan returns.
// Skipping them lets a repeated batch or grid write through the plan while
// the float array is absent or stale. Row "a" beside "a-b" breaks (row,
// column) order against element-key order, and row "a" column "b/c" collides
// with row "a/b" column "c". Each operation takes four bytes: kind, row,
// column and value; the kind byte's operation is its remainder by 7, and a
// quotient of 3 modulo 4 skips the float reads.
func FuzzTableColumns(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 1, 0, 2, 1, 0, 0, 3, 2, 1, 0, 0})
	f.Add([]byte{0, 0, 1, 5, 0, 2, 0, 6, 3, 0, 1, 4, 4, 0, 0, 0, 0, 3, 2, 7})
	f.Add([]byte{0, 3, 0, 1, 0, 3, 1, 2, 0, 3, 2, 3, 1, 3, 1, 9, 0, 3, 1, 8, 2, 3, 0, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 1, 3, 2, 2, 2, 0, 0, 5, 0, 0, 3, 5, 0, 0, 4, 0, 4, 1, 5, 5, 0, 0, 6, 5, 0, 0, 7})
	f.Add([]byte{0, 0, 0, 1, 6, 1, 3, 25, 6, 0, 0x10, 7, 5, 0, 0, 2, 6, 2, 0x15, 24})
	// A grid and its repeat on a never-read table, a read, the repeat again;
	// then a grid adding cells and two repeats with no read between.
	f.Add([]byte{27, 3, 0x03, 4, 27, 3, 0x13, 8, 6, 3, 0x13, 12, 6, 3, 0x13, 16,
		27, 0, 0x03, 5, 27, 0, 0x13, 9, 27, 0, 0x13, 13, 0, 0, 0, 1})
	rows := []string{"a", "a-b", "a/b", "r1", "r10", "r2"}
	cols := []string{"c", "b/c", "c1", "d"}
	shapes := []ScanOptions{{}, {ColumnPrefix: "c"}, {RowPrefix: "r1"}}
	projections := [][]string{{"c1", "c"}, {"d", "x", "b/c"}}
	f.Fuzz(func(t *testing.T, script []byte) {
		store := New()
		table, err := store.CreateTable("t", TableOptions{MaxVersions: 2})
		if err != nil {
			t.Fatal(err)
		}
		m := &refTable{maxVersions: 2, cells: map[string]map[string][]Version{}}
		var recent []Op // the last few single puts and deletes
		var last []Op   // the last batch's or grid's ops
		for ; len(script) >= 4; script = script[4:] {
			row, col, b := rows[int(script[1])%len(rows)], cols[int(script[2])%len(cols)], script[3]
			// value is b%20 bytes long, on either side of the 8 bytes a
			// version holds inline; 8 bytes long, it encodes a float.
			value := make([]byte, int(b)%20)
			for i := range value {
				value[i] = b + byte(i)
			}
			if b%20 == 8 {
				value = EncodeFloat(float64(b) - 128)
			}
			kind := script[0] % 7
			if kind <= 2 {
				recent = append(recent[max(len(recent)-3, 0):], Op{Row: row, Column: col, Delete: kind == 2})
			}
			switch kind {
			case 0:
				err = table.PutFloat(row, col, float64(b)/4)
				m.apply([]Op{{Row: row, Column: col, Value: EncodeFloat(float64(b) / 4)}})
			case 1:
				err = table.Put(row, col, value)
				m.apply([]Op{{Row: row, Column: col, Value: value}})
			case 2:
				err = table.Delete(row, col)
				m.apply([]Op{{Row: row, Column: col, Delete: true}})
			case 3:
				err = table.ReplayPut(row, col, value, 1+uint64(b%16))
				m.replayPut(row, col, Version{Timestamp: 1 + uint64(b%16), Value: slices.Clone(value)})
			case 4:
				if err = store.DropTable("t"); err == nil {
					table, err = store.CreateTable("t", TableOptions{MaxVersions: 2})
				}
				m = &refTable{maxVersions: 2, cells: map[string]map[string][]Version{}, clock: m.clock}
			case 5:
				batch := NewBatch()
				ops := slices.Clone(recent)
				for k, op := range ops {
					if op.Delete {
						batch.Delete(op.Row, op.Column)
					} else {
						v := float64(b) + float64(k)/8
						batch.PutFloat(op.Row, op.Column, v)
						ops[k].Value = EncodeFloat(v)
					}
				}
				err = table.Apply(batch)
				m.apply(ops)
				last = ops
			case 6:
				// Rows step from row by b/4 (a multiple of len(rows)
				// repeats one); the column byte's low bits pick columns,
				// and bit 4 asks for the last write's keys instead.
				gridRows, gridCols, repeat := gridOf(last)
				if !repeat || script[2]&0x10 == 0 {
					gridRows, gridCols = nil, nil
					for i := 0; i <= int(b%4); i++ {
						gridRows = append(gridRows, rows[(int(script[1])+i*int(b/4))%len(rows)])
					}
					for j, c := range cols {
						if script[2]&(1<<j) != 0 || j == int(script[2])%len(cols) {
							gridCols = append(gridCols, c)
						}
					}
				}
				vals := make([]float64, len(gridRows)*len(gridCols))
				for k := range vals {
					vals[k] = float64(b) - float64(k)/8
				}
				err = table.PutFloatRows(gridRows, gridCols, func(dst []float64) { copy(dst, vals) })
				last = gridOps(gridRows, gridCols, vals)
				m.apply(last)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := compareCells(table, m, rows, cols); err != nil {
				t.Fatal(err)
			}
			if err := checkBlobs(table); err != nil {
				t.Fatal(err)
			}
			if script[0]/7%4 == 3 {
				continue
			}
			for _, opts := range shapes {
				want := floatColumns(table.Scan(opts))
				if got, version := table.ScanColumns(opts, nil); !equalColumns(got, want) || version != m.version {
					t.Fatalf("%+v: ScanColumns = %v @%d, scanned cells %v, model @%d", opts, got, version, want, m.version)
				}
			}
			cells := table.Scan(ScanOptions{})
			for _, proj := range projections {
				var keys []string
				var vals []float64
				var ok []bool
				table.ScanFloatRows(proj, func(k []string, v []float64, o []bool) {
					keys, vals, ok = slices.Clone(k), slices.Clone(v), slices.Clone(o)
				})
				var wantKeys []string
				var wantVals []float64
				var wantOK []bool
				for i, j := 0, 0; i < len(cells); i = j {
					for j = i; j < len(cells) && cells[j].Row == cells[i].Row; j++ {
					}
					wantKeys = append(wantKeys, cells[i].Row)
					for _, col := range proj {
						v, found := 0.0, false
						for _, c := range cells[i:j] {
							if c.Column == col {
								v, found = c.FloatValue()
							}
						}
						wantVals, wantOK = append(wantVals, v), append(wantOK, found)
					}
				}
				if !slices.Equal(keys, wantKeys) || !slices.Equal(vals, wantVals) || !slices.Equal(ok, wantOK) {
					t.Fatalf("ScanFloatRows(%q) = %q %v %v, scanned %q %v %v", proj, keys, vals, ok, wantKeys, wantVals, wantOK)
				}
			}
		}
	})
}

// equalColumns compares two states bit for bit.
func equalColumns(a, b metric.Columns) bool {
	return slices.Equal(a.Keys, b.Keys) && slices.EqualFunc(a.Vals, b.Vals, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}
