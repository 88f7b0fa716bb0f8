package kvstore

import (
	"math"
	"slices"
	"strconv"
	"testing"

	"smartflux/internal/metric"
)

// FuzzTableColumns runs a byte-driven script against one table — float and
// non-float puts, deletes, ReplayPuts at explicit timestamps, and DropTable
// followed by a recreate — and after every operation requires ScanColumns to
// equal ScanState, and both to equal the float cells a plain Scan returns
// (keyed, sorted and deduplicated as metric.NewState does), for a whole-table,
// a column-prefix and a row-prefix read. Row "a" beside "a-b" breaks (row,
// column) order against element-key order, and row "a" column "b/c" collides
// with row "a/b" column "c". Each operation takes four bytes: kind, row,
// column and value.
func FuzzTableColumns(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 1, 0, 2, 1, 0, 0, 3, 2, 1, 0, 0})
	f.Add([]byte{0, 0, 1, 5, 0, 2, 0, 6, 3, 0, 1, 4, 4, 0, 0, 0, 0, 3, 2, 7})
	f.Add([]byte{0, 3, 0, 1, 0, 3, 1, 2, 0, 3, 2, 3, 1, 3, 1, 9, 0, 3, 1, 8, 2, 3, 0, 0})
	rows := []string{"a", "a-b", "a/b", "r1", "r10", "r2"}
	cols := []string{"c", "b/c", "c1", "d"}
	shapes := []ScanOptions{{}, {ColumnPrefix: "c"}, {RowPrefix: "r1"}}
	f.Fuzz(func(t *testing.T, script []byte) {
		store := New()
		table, err := store.CreateTable("t", TableOptions{MaxVersions: 2})
		if err != nil {
			t.Fatal(err)
		}
		for ; len(script) >= 4; script = script[4:] {
			row, col, b := rows[int(script[1])%len(rows)], cols[int(script[2])%len(cols)], script[3]
			value := EncodeFloat(float64(b) - 128)
			if b%5 == 0 {
				value = []byte("s" + strconv.Itoa(int(b)))
			}
			switch script[0] % 5 {
			case 0:
				err = table.PutFloat(row, col, float64(b)/4)
			case 1:
				err = table.Put(row, col, []byte("s"+strconv.Itoa(int(b))))
			case 2:
				err = table.Delete(row, col)
			case 3:
				err = table.ReplayPut(row, col, value, 1+uint64(b%16))
			case 4:
				if err = store.DropTable("t"); err == nil {
					table, err = store.CreateTable("t", TableOptions{MaxVersions: 2})
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range shapes {
				var elems []metric.Elem
				for _, c := range table.Scan(opts) {
					if v, ok := c.FloatValue(); ok {
						elems = append(elems, metric.Elem{Key: c.Key(), Val: v})
					}
				}
				want := metric.ColumnsOf(metric.NewState(elems))
				got, version := table.ScanColumns(opts)
				state, stateVersion := table.ScanState(opts)
				if !equalColumns(got, metric.ColumnsOf(state)) || version != stateVersion || !equalColumns(got, want) {
					t.Fatalf("%+v: ScanColumns = %v @%d, ScanState %v @%d, scanned cells %v", opts, got, version, state, stateVersion, want)
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
