package kvstore

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"smartflux/internal/metric"
)

// refTable is the reference a table must agree with: the map-of-maps layout
// the row records replaced, with the same write rules spelled out cell by
// cell.
type refTable struct {
	maxVersions int
	cells       map[string]map[string][]Version // versions newest-last
	clock       uint64
	version     uint64
	// cellChanges counts cells added and deleted; flips counts cells whose
	// latest value switched between float and non-float.
	cellChanges, flips int
}

// isFloat reports whether a cell window's latest value is an encoded float.
func isFloat(w []Version) bool {
	_, err := DecodeFloat(w[len(w)-1].Value)
	return err == nil
}

// insert places v at index idx of the cell's window, as insertLocked does:
// a full window drops its oldest version, or v itself when v is older than
// every retained one. The version moves only when v is kept.
func (m *refTable) insert(row, col string, idx int, v Version) {
	if m.cells[row] == nil {
		m.cells[row] = map[string][]Version{}
	}
	old := m.cells[row][col]
	var w []Version
	switch {
	case len(old) < m.maxVersions:
		w = slices.Insert(slices.Clone(old), idx, v)
	case idx > 0:
		w = slices.Concat(old[1:idx], []Version{v}, old[idx:])
	default:
		return
	}
	m.cells[row][col] = w
	m.version++
	if len(old) == 0 {
		m.cellChanges++
	} else if isFloat(old) != isFloat(w) {
		m.flips++
	}
}

func (m *refTable) replayPut(row, col string, v Version) {
	w := m.cells[row][col]
	idx := len(w)
	for idx > 0 && w[idx-1].Timestamp > v.Timestamp {
		idx--
	}
	if idx > 0 && w[idx-1].Timestamp == v.Timestamp {
		return
	}
	m.insert(row, col, idx, v)
}

func (m *refTable) delete(row, col string) {
	if _, ok := m.cells[row][col]; !ok {
		return
	}
	delete(m.cells[row], col)
	m.cellChanges++
	if len(m.cells[row]) == 0 {
		delete(m.cells, row)
	}
	m.version++
}

// apply mirrors a live write: op i of the batch is stamped clock+1+i, a
// delete of a missing cell included.
func (m *refTable) apply(ops []Op) {
	first := m.clock + 1
	m.clock += uint64(len(ops))
	for i, op := range ops {
		if op.Delete {
			m.delete(op.Row, op.Column)
			continue
		}
		w := m.cells[op.Row][op.Column]
		m.insert(op.Row, op.Column, len(w), Version{Timestamp: first + uint64(i), Value: slices.Clone(op.Value)})
	}
}

// refCell is one cell of the reference in (row, column) order.
type refCell struct {
	row, col string
	versions []Version
}

func (m *refTable) sorted() []refCell {
	var out []refCell
	for row, cols := range m.cells {
		for col, w := range cols {
			out = append(out, refCell{row, col, w})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].row != out[j].row {
			return out[i].row < out[j].row
		}
		return out[i].col < out[j].col
	})
	return out
}

// Row keys include "a" and "a-b": row order and element-key order part ways
// there ('-' sorts below '/'), so ScanColumns' re-sort is exercised too. The
// "w" columns let a row grow wider than narrowRow, so both of row.index's
// lookups are exercised; modelFloatCols are ScanFloatRows projections, one
// naming a column no row has.
var (
	modelRows      = []string{"a", "a-b", "b", "r1", "r10", "r2"}
	modelCols      = []string{"c0", "c1", "c2", "d", "w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7"}
	modelFloatCols = [][]string{{"c0"}, {"d", "c0", "w7"}, {"w0", "zz", "c2", "w5"}}
	modelScan      = []ScanOptions{{}, {ColumnPrefix: "c"}, {ColumnPrefix: "w"}}
)

// TestTableMatchesReferenceModel runs seeded random sequences of Put, Delete,
// Apply, ReplayPut and ReplayDelete on a table and on the reference, and after
// every operation compares every read: Scan, ScanColumns, ScanFloatRows
// (with its column lists as given and built at run time), History, Get,
// GetVersions, the row count, Version and the store clock, and when ScanColumns shares its Keys (see compareColumns);
// and checks the table's blob slots (see checkBlobs). The sequences include
// batches whose deletes empty a row that later ops of the same batch write
// again, out-of-order and duplicate replays into full windows, rows wider
// than narrowRow, column keys built at run time — equal to the stored key,
// but not sharing its data — cells overwritten between float and non-float,
// and float cells in both rows "a" and "a-b", where (row, column) order and
// element-key order part. Values are 0, 1–7, 8 (floats) and 9 or more bytes
// long, on both sides of what a stamp holds inline, and cells are overwritten
// from one length class to another; long values are replayed into full
// windows, some older than every retained version, which drops them. They
// also re-apply the last batch's keys with fresh values, sometimes with a
// column swapped, a delete inside the batch, or a cell added or removed
// before it. They write float grids (PutFloatRows) of random rows,
// duplicates included, × random columns, and grids repeating the last
// write's keys when those form a grid, which the table's write plan
// resolves; and an undo-shaped batch (puts to existing cells, of another
// length than the grid) between two equal grids, which must leave the
// second grid looking nothing up. Every batch looks up all its puts, and
// every grid exactly the puts the plan does not resolve (see checkPlan); the
// test requires both the plan and the row and column lookup to have resolved
// some puts of grids. One step in four skips the reads that build the float
// array, so grids also go through the plan while that array is absent or
// stale, which the test requires some of; and MaxVersions is 1, 2, 3 or 5,
// above DefaultMaxVersions, where a planned write's append moves a window,
// which the test also requires some of.
func TestTableMatchesReferenceModel(t *testing.T) {
	widest, flips, orderBreaks := 0, 0, 0
	planned, looked := 0, 0     // puts of grids the plan resolved, and looked up
	staleHits, moved := 0, 0    // plan hits beside an absent or stale float array; of windows the append moved
	undos := 0                  // undo-shaped batches between two equal grids
	var classes [4]int          // values written per lengthClass
	classFlips, dropped := 0, 0 // overwrites across classes; long replays dropped
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		maxVersions := []int{1, 2, 3, 5}[seed%4]
		table := newTestTable(t, TableOptions{MaxVersions: maxVersions})
		m := &refTable{maxVersions: maxVersions, cells: map[string]map[string][]Version{}}
		// sized returns n random bytes.
		sized := func(n int) []byte {
			v := make([]byte, n)
			rng.Read(v)
			return v
		}
		// ofClass returns a value of lengthClass c.
		ofClass := func(c int) []byte {
			classes[c]++
			switch c {
			case 0:
				return sized(0)
			case 1:
				return sized(1 + rng.Intn(inlineWidth-1))
			case 2:
				return EncodeFloat(float64(rng.Intn(1000)) / 8)
			default:
				return sized(inlineWidth + 1 + rng.Intn(24))
			}
		}
		value := func() []byte {
			switch rng.Intn(10) {
			case 0:
				return []byte("s" + strconv.Itoa(rng.Intn(100))) // not a float
			case 1, 2:
				return ofClass(rng.Intn(4))
			}
			return EncodeFloat(float64(rng.Intn(1000)) / 8)
		}
		pick := func() (row, col string) {
			cols := modelCols
			if rng.Intn(2) == 0 {
				cols = modelCols[:4]
			}
			return modelRows[rng.Intn(len(modelRows))], runtimeKey(rng, cols[rng.Intn(len(cols))])
		}
		// existing picks a live cell most of the time, so deletes and
		// replays land.
		existing := func() (row, col string) {
			if cells := m.sorted(); len(cells) > 0 && rng.Intn(4) != 0 {
				c := cells[rng.Intn(len(cells))]
				return c.row, c.col
			}
			return pick()
		}
		var reads []metric.Columns
		cellChanges, flipped := 0, 0 // m's counts at the last read
		var last []Op                // the ops of the last Apply or PutFloatRows
		// write runs a batch of ops through checkPlan.
		write := func(ops []Op, run func()) {
			checkPlan(t, table, m, ops, false, run)
		}
		// putGrid writes a float grid of rows × cols through checkPlan,
		// counts its plan hits and lookups, and returns its lookups.
		putGrid := func(rows, cols []string) (lookups uint64) {
			vals := make([]float64, len(rows)*len(cols))
			for k := range vals {
				vals[k] = float64(rng.Intn(1000)) / 8
			}
			ops := gridOps(rows, cols, vals)
			resolved := table.resolved
			hits, grew, stale := checkPlan(t, table, m, ops, true, func() {
				if err := table.PutFloatRows(rows, cols, func(dst []float64) { copy(dst, vals) }); err != nil {
					t.Fatal(err)
				}
			})
			planned, looked, moved = planned+hits, looked+len(ops)-hits, moved+grew
			if stale {
				staleHits += hits
			}
			m.apply(ops)
			last = ops
			return table.resolved - resolved
		}
		// newGrid picks random rows, duplicates allowed, × random columns.
		newGrid := func() (rows, cols []string) {
			for n := 1 + rng.Intn(4); len(rows) < n; {
				row, _ := pick()
				rows = append(rows, row)
			}
			for _, c := range rng.Perm(len(modelCols))[:1+rng.Intn(4)] {
				cols = append(cols, runtimeKey(rng, modelCols[c]))
			}
			return rows, cols
		}
		for step := 0; step < 150; step++ {
			var did string
			switch rng.Intn(13) {
			case 0:
				row, col := pick()
				v := value()
				did = fmt.Sprintf("Put(%s, %s)", row, col)
				if err := table.Put(row, col, v); err != nil {
					t.Fatal(err)
				}
				m.apply([]Op{{Row: row, Column: col, Value: v}})
			case 1:
				row, col := existing()
				did = fmt.Sprintf("Delete(%s, %s)", row, col)
				if err := table.Delete(row, col); err != nil {
					t.Fatal(err)
				}
				m.apply([]Op{{Row: row, Column: col, Delete: true}})
			case 2:
				var ops []Op
				for n := 1 + rng.Intn(8); len(ops) < n; {
					if rng.Intn(3) == 0 {
						row, col := existing()
						ops = append(ops, Op{Row: row, Column: col, Delete: true})
					} else {
						row, col := pick()
						ops = append(ops, Op{Row: row, Column: col, Value: value()})
					}
				}
				did = fmt.Sprintf("Apply(%d random ops)", len(ops))
				pooled := rng.Intn(2) == 0
				write(ops, func() { applyOps(t, table, ops, pooled) })
				m.apply(ops)
				last = ops
			case 3:
				// Write a row, delete every cell it has, write it again.
				row, col := existing()
				ops := []Op{{Row: row, Column: col, Value: value()}}
				for _, c := range modelCols {
					ops = append(ops, Op{Row: row, Column: runtimeKey(rng, c), Delete: true})
				}
				_, col2 := pick()
				other, col3 := pick()
				ops = append(ops, Op{Row: row, Column: col2, Value: value()}, Op{Row: other, Column: col3, Value: value()})
				did = fmt.Sprintf("Apply(empty row %s mid-batch)", row)
				pooled := rng.Intn(2) == 0
				write(ops, func() { applyOps(t, table, ops, pooled) })
				m.apply(ops)
				last = ops
			case 4:
				row, col := existing()
				var newest uint64
				if w := m.cells[row][col]; len(w) > 0 {
					newest = w[len(w)-1].Timestamp
				}
				v := Version{Timestamp: 1 + uint64(rng.Int63n(int64(newest)+3)), Value: value()}
				did = fmt.Sprintf("ReplayPut(%s, %s, @%d)", row, col, v.Timestamp)
				if err := table.ReplayPut(row, col, v.Value, v.Timestamp); err != nil {
					t.Fatal(err)
				}
				m.replayPut(row, col, Version{Timestamp: v.Timestamp, Value: slices.Clone(v.Value)})
			case 5:
				row, col := existing()
				did = fmt.Sprintf("ReplayDelete(%s, %s)", row, col)
				if err := table.ReplayDelete(row, col); err != nil {
					t.Fatal(err)
				}
				m.delete(row, col)
			case 6:
				// Write every column of a row: wider than narrowRow.
				row, _ := pick()
				var ops []Op
				for _, c := range modelCols {
					ops = append(ops, Op{Row: row, Column: runtimeKey(rng, c), Value: value()})
				}
				did = fmt.Sprintf("Apply(widen row %s)", row)
				pooled := rng.Intn(2) == 0
				write(ops, func() { applyOps(t, table, ops, pooled) })
				m.apply(ops)
				last = ops
			case 7:
				// Overwrite a cell with a value of the other kind.
				row, col := existing()
				v := EncodeFloat(float64(rng.Intn(1000)) / 8)
				if w := m.cells[row][col]; len(w) > 0 && isFloat(w) {
					v = []byte("s" + strconv.Itoa(rng.Intn(100)))
				}
				did = fmt.Sprintf("Put(%s, %s, flip)", row, col)
				if err := table.Put(row, col, v); err != nil {
					t.Fatal(err)
				}
				m.apply([]Op{{Row: row, Column: col, Value: v}})
			case 8:
				// Re-apply the last batch's keys with fresh values: half
				// the time the same strings, else equal ones built at run
				// time.
				ops := slices.Clone(last)
				cloned := rng.Intn(2) == 0
				for i := range ops {
					if cloned {
						ops[i].Row, ops[i].Column = strings.Clone(ops[i].Row), strings.Clone(ops[i].Column)
					}
					if !ops[i].Delete {
						ops[i].Value = value()
					}
				}
				did = fmt.Sprintf("Apply(repeat %d ops, keys cloned %v", len(ops), cloned)
				if len(ops) == 0 {
					break
				}
				switch k := rng.Intn(len(ops)); rng.Intn(5) {
				case 1:
					_, ops[k].Column = pick()
					did += ", a column swapped"
				case 2:
					ops[k] = Op{Row: ops[k].Row, Column: ops[k].Column, Delete: true}
					did += ", a delete inside"
				case 3:
					// A replay adds a cell, or rewrites one, and leaves
					// the last batch the table's last write.
					row, col := pick()
					v := Version{Timestamp: m.clock, Value: value()}
					if err := table.ReplayPut(row, col, v.Value, v.Timestamp); err != nil {
						t.Fatal(err)
					}
					m.replayPut(row, col, v)
					did += fmt.Sprintf(", after ReplayPut(%s, %s)", row, col)
				case 4:
					row, col := existing()
					if err := table.ReplayDelete(row, col); err != nil {
						t.Fatal(err)
					}
					m.delete(row, col)
					did += fmt.Sprintf(", after ReplayDelete(%s, %s)", row, col)
				}
				did += ")"
				pooled := rng.Intn(2) == 0
				write(ops, func() { applyOps(t, table, ops, pooled) })
				m.apply(ops)
				last = ops
			case 9:
				// Overwrite a cell with a value of another length class.
				row, col := existing()
				c := rng.Intn(4)
				if w := m.cells[row][col]; len(w) > 0 {
					from := lengthClass(w[len(w)-1].Value)
					c = (from + 1 + rng.Intn(3)) % 4
					classFlips++
				}
				v := ofClass(c)
				did = fmt.Sprintf("Put(%s, %s, %d bytes)", row, col, len(v))
				if err := table.Put(row, col, v); err != nil {
					t.Fatal(err)
				}
				m.apply([]Op{{Row: row, Column: col, Value: v}})
			case 10:
				// Fill a cell's window with long values, then replay a long
				// value into it: half the time older than every retained
				// version, which drops it.
				row, col := existing()
				for len(m.cells[row][col]) < maxVersions {
					v := ofClass(3)
					if err := table.Put(row, col, v); err != nil {
						t.Fatal(err)
					}
					m.apply([]Op{{Row: row, Column: col, Value: v}})
				}
				w := m.cells[row][col]
				oldest, newest := w[0].Timestamp, w[len(w)-1].Timestamp
				ts := 1 + uint64(rng.Int63n(int64(newest)+2))
				if oldest > 1 && rng.Intn(2) == 0 {
					ts = 1 + uint64(rng.Int63n(int64(oldest)-1))
					dropped++
				}
				v := ofClass(3)
				did = fmt.Sprintf("ReplayPut(%s, %s, @%d, %d bytes) into a full window", row, col, ts, len(v))
				if err := table.ReplayPut(row, col, v, ts); err != nil {
					t.Fatal(err)
				}
				m.replayPut(row, col, Version{Timestamp: ts, Value: slices.Clone(v)})
			case 11:
				// Write a float grid: random rows, duplicates allowed, ×
				// random columns; half the time the last write's keys, when
				// they form a grid.
				rows, cols, repeat := gridOf(last)
				if !repeat || rng.Intn(2) == 0 {
					rows, cols = newGrid()
					repeat = false
				}
				did = fmt.Sprintf("PutFloatRows(%q × %q, repeating the last write %v)", rows, cols, repeat)
				putGrid(rows, cols)
			case 12:
				// An undo-shaped batch between two equal grids: the grid
				// (written twice when the first adds cells, which drops the
				// plan), then puts to existing cells, of another length,
				// then the grid again, which looks nothing up.
				rows, cols := newGrid()
				did = fmt.Sprintf("PutFloatRows(%q × %q) around an undo-shaped batch", rows, cols)
				if putGrid(rows, cols) > 0 {
					putGrid(rows, cols)
				}
				n := 1 + rng.Intn(8)
				if n == len(rows)*len(cols) {
					n++
				}
				cells := m.sorted()
				ops := make([]Op, n)
				for i := range ops {
					c := cells[rng.Intn(len(cells))]
					ops[i] = Op{Row: c.row, Column: c.col, Value: value()}
				}
				pooled := rng.Intn(2) == 0
				write(ops, func() { applyOps(t, table, ops, pooled) })
				m.apply(ops)
				if got := putGrid(rows, cols); got != 0 {
					t.Fatalf("seed %d step %d: the grid after an undo-shaped batch of %d puts looked up %d cells, want 0", seed, step, n, got)
				}
				undos++
			}
			if err := checkBlobs(table); err != nil {
				t.Fatalf("seed %d step %d, after %s: %v", seed, step, did, err)
			}
			for _, cols := range m.cells {
				widest = max(widest, len(cols))
			}
			if rng.Intn(4) == 0 {
				// Skip the reads that build the float array; the point reads
				// build nothing.
				if err := compareCells(table, m, modelRows, modelCols); err != nil {
					t.Fatalf("seed %d step %d, after %s: %v", seed, step, did, err)
				}
				continue
			}
			if err := compareWithModel(table, m); err != nil {
				t.Fatalf("seed %d step %d, after %s: %v", seed, step, did, err)
			}
			var err error
			reads, err = compareColumns(table, reads, m.cellChanges != cellChanges, m.flips != flipped)
			if err != nil {
				t.Fatalf("seed %d step %d, after %s: %v", seed, step, did, err)
			}
			cellChanges, flipped = m.cellChanges, m.flips
			if hasFloat(m.cells["a"]) && hasFloat(m.cells["a-b"]) {
				orderBreaks++
			}
		}
		flips += m.flips
	}
	if widest <= narrowRow {
		t.Errorf("widest row had %d columns: the binary-search lookup of rows wider than %d went untested", widest, narrowRow)
	}
	if flips == 0 || orderBreaks == 0 {
		t.Errorf("%d float/non-float flips, %d reads with float cells in rows a and a-b: want both", flips, orderBreaks)
	}
	if planned == 0 || looked == 0 || undos == 0 {
		t.Errorf("grids: %d puts resolved by the write plan, %d looked up, %d around an undo-shaped batch: want all", planned, looked, undos)
	}
	if staleHits == 0 || moved == 0 {
		t.Errorf("%d puts resolved by the write plan beside an absent or stale float array, %d of them moving their window: want some of both", staleHits, moved)
	}
	if slices.Contains(classes[:], 0) || classFlips == 0 || dropped == 0 {
		t.Errorf("%v values of 0, 1–7, 8 and 9+ bytes, %d overwrites across lengths, %d long replays older than a full window: want all",
			classes, classFlips, dropped)
	}
}

// lengthClass sorts a value by length around what a stamp holds inline: 0
// for empty, 1 for 1–7 bytes, 2 for 8 (a float), 3 for longer.
func lengthClass(v []byte) int {
	switch {
	case len(v) == 0:
		return 0
	case len(v) < inlineWidth:
		return 1
	case len(v) == inlineWidth:
		return 2
	default:
		return 3
	}
}

// checkBlobs checks the table's blob slots against its windows: each version
// of a value longer than inlineWidth owns one slot, which holds a blob of its
// length; every other slot is on the free list, once, and nil.
func checkBlobs(table *Table) error {
	owner := make(map[uint64]bool)
	for _, r := range table.rows {
		for i, w := range r.cells {
			for _, s := range w {
				if s.n <= inlineWidth {
					continue
				}
				if owner[s.w] {
					return fmt.Errorf("blob slot %d is held by two versions", s.w)
				}
				owner[s.w] = true
				if blob := table.blobs[s.w]; blob == nil || len(blob) != s.n {
					return fmt.Errorf("cell %s/%s @%d: blob slot %d holds %d bytes, want %d", r.key, r.cols[i], s.ts, s.w, len(blob), s.n)
				}
			}
		}
	}
	free := make(map[uint64]bool)
	for _, slot := range table.free {
		if owner[slot] || free[slot] {
			return fmt.Errorf("free slot %d is also live, or free twice", slot)
		}
		free[slot] = true
		if table.blobs[slot] != nil {
			return fmt.Errorf("free slot %d holds a blob", slot)
		}
	}
	if len(owner)+len(free) != len(table.blobs) {
		return fmt.Errorf("%d blob slots, %d live and %d free: slots leaked", len(table.blobs), len(owner), len(free))
	}
	return nil
}

// planHits returns how many puts of a grid's ops the table's write plan
// resolves: the puts whose plan entry names the op's row and column, up to
// the first op that adds a cell; and how many of those find their window full
// to its capacity but below MaxVersions, so that the append moves it. m
// holds the table's cells before ops.
func planHits(table *Table, m *refTable, ops []Op) (hits, moved int) {
	p := &table.plan
	if !p.valid || len(p.cells) != len(ops) {
		return 0, 0
	}
	for i, op := range ops {
		if _, live := m.cells[op.Row][op.Column]; !live {
			return hits, moved // the op adds a cell
		}
		if p.rows[i/len(p.cols)] == op.Row && p.cols[i%len(p.cols)] == op.Column {
			hits++
			if w := *p.cells[i].win; len(w) == cap(w) && len(w) < table.maxVersions {
				moved++
			}
		}
	}
	return hits, moved
}

// checkPlan runs write, a grid or a batch writing ops, and returns planHits
// of a grid's ops, and whether the float array was absent or stale before the
// write. It fails the test unless the table looked up every other put: all
// of a batch's.
func checkPlan(t *testing.T, table *Table, m *refTable, ops []Op, grid bool, write func()) (hits, moved int, stale bool) {
	t.Helper()
	if grid {
		hits, moved = planHits(table, m, ops)
	}
	stale = table.floats == nil || table.floats.stale
	puts := 0
	for _, op := range ops {
		if !op.Delete {
			puts++
		}
	}
	resolved := table.resolved
	write()
	if got := table.resolved - resolved; got != uint64(puts-hits) {
		t.Fatalf("a write of %d puts, %d of them through the plan, looked up %d", puts, hits, got)
	}
	return hits, moved, stale
}

// gridOps returns the ops of PutFloatRows(rows, cols) writing vals: its puts
// in row-major order, as the encoded floats the table stores.
func gridOps(rows, cols []string, vals []float64) []Op {
	ops := make([]Op, 0, len(vals))
	for i, row := range rows {
		for j, col := range cols {
			ops = append(ops, Op{Row: row, Column: col, Value: EncodeFloat(vals[i*len(cols)+j])})
		}
	}
	return ops
}

// gridOf returns rows and cols such that the grid rows × cols names the keys
// of ops in order, and whether there are such; ops must all be puts.
func gridOf(ops []Op) (rows, cols []string, ok bool) {
	if len(ops) == 0 {
		return nil, nil, false
	}
	for _, op := range ops {
		if op.Row != ops[0].Row {
			break
		}
		cols = append(cols, op.Column)
	}
	if len(ops)%len(cols) != 0 {
		return nil, nil, false
	}
	for k, op := range ops {
		j := k % len(cols)
		if j == 0 {
			rows = append(rows, op.Row)
		}
		if op.Delete || op.Row != rows[len(rows)-1] || op.Column != cols[j] {
			return nil, nil, false
		}
	}
	return rows, cols, true
}

// hasFloat reports whether a model row has a float cell.
func hasFloat(row map[string][]Version) bool {
	for _, w := range row {
		if isFloat(w) {
			return true
		}
	}
	return false
}

// compareColumns checks the Keys ScanColumns returns for each of modelScan
// (compareWithModel checks their contents), and returns what it read. Two
// reads with no write between them share their Keys. Against prev, the reads after the operation before:
// an operation that added, deleted and flipped no cell keeps the Keys, and one
// that added or deleted a cell replaces them.
func compareColumns(table *Table, prev []metric.Columns, cellsChanged, flipped bool) ([]metric.Columns, error) {
	sharesKeys := func(a, b metric.Columns) bool {
		return a.Len() == b.Len() && &a.Keys[0] == &b.Keys[0]
	}
	var reads []metric.Columns
	for k, opts := range modelScan {
		got, _ := table.ScanColumns(opts, nil)
		if got.Len() > 0 {
			if again, _ := table.ScanColumns(opts, nil); !sharesKeys(got, again) {
				return nil, fmt.Errorf("two ScanColumns(%+v) with no write between them do not share Keys", opts)
			}
			if prev != nil && prev[k].Len() > 0 {
				switch shared := sharesKeys(got, prev[k]); {
				case !cellsChanged && !flipped && !shared:
					return nil, fmt.Errorf("ScanColumns(%+v) has new Keys, though no cell was added, deleted or flipped", opts)
				case cellsChanged && shared:
					return nil, fmt.Errorf("ScanColumns(%+v) kept its Keys across an added or deleted cell", opts)
				}
			}
		}
		reads = append(reads, got)
	}
	return reads, nil
}

// runtimeKey returns key, or half the time a copy of it built at run time,
// which compares equal but shares no data with key.
func runtimeKey(rng *rand.Rand, key string) string {
	if rng.Intn(2) == 0 {
		return key
	}
	return strings.Clone(key)
}

// applyOps applies ops as one batch, pooled or not.
func applyOps(t *testing.T, table *Table, ops []Op, pooled bool) {
	t.Helper()
	b := NewBatch()
	if pooled {
		b = GetBatch()
	}
	for _, op := range ops {
		if op.Delete {
			b.Delete(op.Row, op.Column)
		} else {
			b.Put(op.Row, op.Column, op.Value)
		}
	}
	if err := table.Apply(b); err != nil {
		t.Fatal(err)
	}
	if pooled {
		b.Release()
	}
}

// floatColumns is the ι/ε snapshot of cells given in (row, column) order:
// their float values keyed "row/column" in key order, the later of two cells
// whose keys collide kept.
func floatColumns(cells []Cell) metric.Columns {
	vals := make(map[string]float64)
	for _, c := range cells {
		if v, ok := c.FloatValue(); ok {
			vals[c.Row+"/"+c.Column] = v
		}
	}
	keys := slices.Sorted(maps.Keys(vals))
	c := metric.Columns{Keys: keys, Vals: make([]float64, len(keys))}
	for i, key := range keys {
		c.Vals[i] = vals[key]
	}
	return c
}

// compareWithModel checks every read of table against the reference.
func compareWithModel(table *Table, m *refTable) error {
	cells := m.sorted()
	for _, opts := range modelScan {
		var want []Cell
		for _, c := range cells {
			if strings.HasPrefix(c.col, opts.ColumnPrefix) {
				want = append(want, Cell{Row: c.row, Column: c.col, Version: c.versions[len(c.versions)-1]})
			}
		}
		got := table.Scan(opts)
		if !slices.EqualFunc(got, want, deepEqual) {
			return fmt.Errorf("Scan(%+v) = %v, want %v", opts, got, want)
		}
		if got, version := table.ScanColumns(opts, nil); !equalColumns(got, floatColumns(want)) || version != m.version {
			return fmt.Errorf("ScanColumns(%+v) = %v @%d, want %v @%d", opts, got, version, floatColumns(want), m.version)
		}
	}

	for _, proj := range modelFloatCols {
		var wantKeys []string
		var wantVals []float64
		var wantOK []bool
		for row := range m.cells {
			wantKeys = append(wantKeys, row)
		}
		slices.Sort(wantKeys)
		for _, row := range wantKeys {
			for _, col := range proj {
				v, err := 0.0, ErrBadFloat
				if w := m.cells[row][col]; len(w) > 0 {
					v, err = DecodeFloat(w[len(w)-1].Value)
				}
				wantVals, wantOK = append(wantVals, v), append(wantOK, err == nil)
			}
		}
		built := make([]string, len(proj))
		for i, col := range proj {
			built[i] = strings.Clone(col)
		}
		for _, cols := range [][]string{proj, built} {
			var keys []string
			var vals []float64
			var ok []bool
			table.ScanFloatRows(cols, func(k []string, v []float64, o []bool) {
				keys, vals, ok = slices.Clone(k), slices.Clone(v), slices.Clone(o)
			})
			if !slices.Equal(keys, wantKeys) || !slices.Equal(vals, wantVals) || !slices.Equal(ok, wantOK) {
				return fmt.Errorf("ScanFloatRows(%q) = %q %v %v, want %q %v %v", cols, keys, vals, ok, wantKeys, wantVals, wantOK)
			}
		}
	}

	if err := compareCells(table, m, modelRows, modelCols); err != nil {
		return err
	}
	if got := len(table.rows); got != len(m.cells) {
		return fmt.Errorf("%d rows, want %d", got, len(m.cells))
	}
	if got := table.Version(); got != m.version {
		return fmt.Errorf("Version = %d, want %d", got, m.version)
	}
	if got := table.store.Clock(); got != m.clock {
		return fmt.Errorf("store clock = %d, want %d", got, m.clock)
	}
	return nil
}

// compareCells checks History, ScanVersions, and Get and GetVersions of every
// cell of rows × cols, against the reference.
func compareCells(table *Table, m *refTable, rows, cols []string) error {
	var history, wantHistory []Mutation
	err := table.History(func(cell []Mutation) error {
		history = append(history, cell...)
		return nil
	})
	for _, c := range m.sorted() {
		for _, v := range c.versions {
			wantHistory = append(wantHistory, Mutation{Table: table.Name(), Row: c.row, Column: c.col, New: v.Value, Timestamp: v.Timestamp, Kind: MutationPut})
		}
	}
	if err != nil || !slices.EqualFunc(history, wantHistory, deepEqual) {
		return fmt.Errorf("History = %v (err %v), want %v", history, err, wantHistory)
	}
	for _, opts := range modelScan {
		var want []Cell
		for _, c := range m.sorted() {
			if !strings.HasPrefix(c.col, opts.ColumnPrefix) {
				continue
			}
			for i := len(c.versions) - 1; i >= 0; i-- {
				want = append(want, Cell{Row: c.row, Column: c.col, Version: c.versions[i]})
			}
		}
		if got := table.ScanVersions(opts); !slices.EqualFunc(got, want, deepEqual) {
			return fmt.Errorf("ScanVersions(%+v) = %v, want %v", opts, got, want)
		}
	}
	for _, row := range rows {
		for _, col := range cols {
			want := slices.Clone(m.cells[row][col])
			slices.Reverse(want)
			if got := table.GetVersions(row, col, 0); !slices.EqualFunc(got, want, deepEqual) {
				return fmt.Errorf("GetVersions(%s, %s) = %v, want %v", row, col, got, want)
			}
			got, ok := table.Get(row, col)
			if len(want) == 0 {
				if ok || got != nil {
					return fmt.Errorf("Get(%s, %s) of a missing cell = %q, %v", row, col, got, ok)
				}
			} else if !ok || !reflect.DeepEqual(got, want[0].Value) {
				return fmt.Errorf("Get(%s, %s) = %q, %v, want %q", row, col, got, ok, want[0].Value)
			}
		}
	}
	return nil
}

func deepEqual[T any](a, b T) bool { return reflect.DeepEqual(a, b) }
