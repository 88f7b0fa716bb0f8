//go:build race

package kvstore

import (
	"bytes"
	"slices"
	"strconv"
	"sync"
	"testing"
)

// raceEnabled reports a -race build. Its instrumentation changes what
// escapes, so allocation guards do not hold under it.
const raceEnabled = true

// TestScanFloatRowsBesideApply runs projected reads while batches are
// applied: batch k writes k to every cell, so a read that saw a batch in part
// would return two values. Each read must see one batch whole, and never an
// older one than the read before it.
func TestScanFloatRowsBesideApply(t *testing.T) {
	table := newTestTable(t, TableOptions{})
	rows := make([]string, 10)
	for i := range rows {
		rows[i] = "r" + strconv.Itoa(i)
	}
	cols := []string{"a", "b"}
	apply := func(k float64) {
		b := GetBatch()
		for _, row := range rows {
			for _, col := range cols {
				b.PutFloat(row, col, k)
			}
		}
		if err := table.Apply(b); err != nil {
			t.Error(err)
		}
		b.Release()
	}
	apply(0)
	const batches = 200
	var wg sync.WaitGroup
	defer wg.Wait()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k <= batches; k++ {
			apply(float64(k))
		}
	}()
	last := 0.0
	for last < batches {
		table.ScanFloatRows(cols, func(keys []string, vals []float64, ok []bool) {
			if len(keys) != len(rows) {
				t.Fatalf("read %d rows, want %d", len(keys), len(rows))
			}
			for i, v := range vals {
				if !ok[i] || v != vals[0] {
					t.Fatalf("read a batch in part: %v %v", vals, ok)
				}
			}
			if vals[0] < last {
				t.Fatalf("read batch %v after batch %v", vals[0], last)
			}
			last = vals[0]
		})
	}
}

// TestScanFloatRowsBesideReplannedApply runs projected reads of two column
// lists, on two goroutines, while a writer alternates between batches that
// repeat the last one's keys, which write through the table's plan, and
// batches that also add a cell and delete it again, which invalidate the
// plan and every projection. Batch k writes k to every cell, so a read that
// saw a batch in part would return two values. Each read must see one batch
// whole, and never an older one than the read before it.
func TestScanFloatRowsBesideReplannedApply(t *testing.T) {
	table := newTestTable(t, TableOptions{})
	rows := make([]string, 10)
	for i := range rows {
		rows[i] = "r" + strconv.Itoa(i)
	}
	cols := []string{"a", "b"}
	apply := func(k int) {
		b := GetBatch()
		for _, row := range rows {
			for _, col := range cols {
				b.PutFloat(row, col, float64(k))
			}
		}
		if k%3 == 0 {
			b.PutFloat("s", "a", float64(k)).Delete("s", "a")
		}
		if err := table.Apply(b); err != nil {
			t.Error(err)
		}
		b.Release()
	}
	apply(1)
	const batches = 300
	var wg sync.WaitGroup
	defer wg.Wait()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 2; k <= batches; k++ {
			apply(k)
		}
	}()
	for _, proj := range [][]string{cols, cols[1:]} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for last := 0.0; last < batches; {
				table.ScanFloatRows(proj, func(keys []string, vals []float64, ok []bool) {
					if len(keys) != len(rows) || len(vals) != len(rows)*len(proj) {
						t.Errorf("read %d rows, %d values, want %d rows", len(keys), len(vals), len(rows))
						last = batches
						return
					}
					for i, v := range vals {
						if !ok[i] || v != vals[0] {
							t.Errorf("read a batch in part: %v %v", vals, ok)
							last = batches
							return
						}
					}
					if vals[0] < last {
						t.Errorf("read batch %v after batch %v", vals[0], last)
					}
					last = vals[0]
				})
			}
		}()
	}
}

// TestPutFloatRowsBesideReaders runs projected reads, ι snapshots and point
// reads while grids are written: grid k writes k to every cell, and every
// third grid also adds a row, which invalidates the plan, the float array
// and every projection; the others repeat the last grid's keys. Each read
// must see one grid whole, and never an older one than the read before it.
func TestPutFloatRowsBesideReaders(t *testing.T) {
	table := newTestTable(t, TableOptions{})
	rows := make([]string, 10)
	for i := range rows {
		rows[i] = "r" + strconv.Itoa(i)
	}
	cols := []string{"a", "b"}
	put := func(k int) {
		keys := rows
		if k%3 == 0 {
			keys = append(slices.Clone(rows), "s"+strconv.Itoa(k))
		}
		err := table.PutFloatRows(keys, cols, func(vals []float64) {
			for i := range vals {
				vals[i] = float64(k)
			}
		})
		if err != nil {
			t.Error(err)
		}
	}
	put(1)
	const grids = 300
	var wg sync.WaitGroup
	defer wg.Wait()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 2; k <= grids; k++ {
			put(k)
		}
	}()
	// check returns the grid vals were all written by, or fails the test.
	check := func(vals []float64, last float64) float64 {
		for _, v := range vals {
			if v != vals[0] {
				t.Errorf("read a grid in part: %v", vals)
				return grids
			}
		}
		if vals[0] < last {
			t.Errorf("read grid %v after grid %v", vals[0], last)
		}
		return vals[0]
	}
	readers := []func(last float64) float64{
		func(last float64) float64 {
			table.ScanFloatRows(cols, func(_ []string, vals []float64, _ []bool) {
				last = check(vals[:len(rows)*len(cols)], last)
			})
			return last
		},
		func(last float64) float64 {
			c, _ := table.ScanColumns(ScanOptions{RowPrefix: "r"}, nil)
			return check(c.Vals, last)
		},
		func(last float64) float64 {
			// Two point reads are two reads: only each on its own is whole.
			v, _ := table.GetFloat("r9", "b")
			return check([]float64{v}, last)
		},
	}
	for _, read := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for last := 0.0; last < grids; {
				last = read(last)
			}
		}()
	}
}

// TestScanColumnsBesideApply runs ι snapshots while batches are applied:
// batch k writes k to every cell, in place in the table's float array once
// the key set has settled, and every fourth batch also adds a cell, which
// makes the next snapshot rebuild the array. Each read must see one batch
// whole, and never an older one than the read before it.
func TestScanColumnsBesideApply(t *testing.T) {
	table := newTestTable(t, TableOptions{})
	rows := make([]string, 10)
	for i := range rows {
		rows[i] = "r" + strconv.Itoa(i)
	}
	cols := []string{"a", "b"}
	apply := func(k int) {
		b := GetBatch()
		for _, row := range rows {
			for _, col := range cols {
				b.PutFloat(row, col, float64(k))
			}
		}
		if k%4 == 0 {
			b.PutFloat("s"+strconv.Itoa(k), "a", float64(k))
		}
		if err := table.Apply(b); err != nil {
			t.Error(err)
		}
		b.Release()
	}
	apply(0)
	const batches = 200
	var wg sync.WaitGroup
	defer wg.Wait()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k <= batches; k++ {
			apply(k)
		}
	}()
	last := 0.0
	for last < batches {
		c, _ := table.ScanColumns(ScanOptions{ColumnPrefix: "a"}, nil)
		state, _ := table.ScanColumns(ScanOptions{RowPrefix: "r"}, nil)
		for _, vals := range [][]float64{c.Vals[:len(rows)], state.Vals} {
			for _, v := range vals {
				if v != vals[0] {
					t.Fatalf("read a batch in part: %v", vals)
				}
			}
		}
		if c.Vals[0] < last {
			t.Fatalf("read batch %v after batch %v", c.Vals[0], last)
		}
		last = c.Vals[0]
	}
}

// TestKeptLongValuesBesideBlobReuse has readers keep the long values they
// read through Get, ScanPagesShared and History, each beside a copy taken at
// read time, while a writer overwrites the cells' windows, releasing blob
// slots and storing new values in them. A released slot gets a new blob and
// the old one is never written, so every kept value must still equal its
// copy, and hold one write's bytes.
func TestKeptLongValuesBesideBlobReuse(t *testing.T) {
	table := newTestTable(t, TableOptions{MaxVersions: 2})
	rows := []string{"r0", "r1", "r2", "r3"}
	put := func(k int) {
		for _, row := range rows {
			if err := table.Put(row, "c", bytes.Repeat([]byte{byte(k)}, 32+k%7)); err != nil {
				t.Error(err)
			}
		}
	}
	put(0)
	const writes = 1000
	type kept struct{ value, copy []byte }
	readers := []func(keep func(v []byte)){
		func(keep func(v []byte)) {
			for _, row := range rows {
				if v, ok := table.Get(row, "c"); ok {
					keep(v)
				}
			}
		},
		func(keep func(v []byte)) {
			table.ScanPagesShared(ScanOptions{}, 2, func(cells []Cell, _ bool) error {
				for _, c := range cells {
					keep(c.Version.Value)
				}
				return nil
			})
		},
		func(keep func(v []byte)) {
			table.History(func(cell []Mutation) error {
				for _, m := range cell {
					keep(m.New)
				}
				return nil
			})
		},
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	all := make([][]kept, len(readers))
	for i, read := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keep := func(v []byte) { all[i] = append(all[i], kept{v, slices.Clone(v)}) }
			for {
				select {
				case <-done:
					return
				default:
					read(keep)
				}
			}
		}()
	}
	for k := 1; k <= writes; k++ {
		put(k)
	}
	close(done)
	wg.Wait()
	for i, values := range all {
		if len(values) == 0 {
			t.Errorf("reader %d kept no value", i)
		}
		for _, v := range values {
			if !bytes.Equal(v.value, v.copy) || len(v.copy) < 32 || bytes.Count(v.copy, v.copy[:1]) != len(v.copy) {
				t.Fatalf("reader %d kept %v, which read %v", i, v.value, v.copy)
			}
		}
	}
}
