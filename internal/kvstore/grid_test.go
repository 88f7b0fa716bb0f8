package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"smartflux/internal/obs"
)

// spanLog records the deterministic fields of the spans an observer emits.
type spanLog struct {
	mu    sync.Mutex
	spans []string
}

func (l *spanLog) EmitSpan(ev obs.SpanEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, fmt.Sprintf("%s %s %s %d", ev.ID, ev.Name, ev.Layer, ev.Bytes))
}

// gridSide is one of the two stores TestPutFloatRowsMatchesApply writes:
// its table, the mutations its observer saw, its counters and its spans.
type gridSide struct {
	store *Store
	table *Table
	reg   *obs.Registry
	spans *spanLog
	muts  []Mutation
}

func newGridSide(t *testing.T, observed bool) *gridSide {
	t.Helper()
	s := &gridSide{store: New(), reg: obs.NewRegistry(), spans: &spanLog{}}
	s.store.Instrument(obs.New(s.reg).WithSpanSinks(s.spans))
	table, err := s.store.CreateTable("t", TableOptions{MaxVersions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if observed {
		table.Subscribe(ObserverFunc(func(m Mutation) { s.muts = append(s.muts, m) }))
	}
	s.table = table
	return s
}

// TestPutFloatRowsMatchesApply feeds the same seeded random grids to two
// stores, one through Batch.PutFloat and Apply, the other through
// PutFloatRows, and requires them to agree after every write: stamped dumps,
// Table.Version, Store.Clock, ScanColumns, kvstore counters and spans, and
// the observer's Mutation stream (New, Timestamp and keys), half the seeds
// with an observer. Grids take random rows, duplicates included, and random
// columns in random order, some keys built at run time; a third of them
// repeat the previous grid's keys, half of those in lists of keys built at
// run time, which the grid side writes through its plan, and deletes between
// grids make both sides add cells again. The batch side looks up every put.
// The observed seeds must have written some repeated grids wholly through the
// plan, so that their Mutation streams are compared too.
func TestPutFloatRowsMatchesApply(t *testing.T) {
	rowPool := []string{"a", "a-b", "b", "r1", "r10", "r2", "v7", "z"}
	colPool := []string{"c0", "c1", "d", "speed", "xway"}
	planned := 0 // repeated grids of observed seeds the plan wrote whole
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		observed := seed%2 == 0
		batched, gridded := newGridSide(t, observed), newGridSide(t, observed)
		var rows, cols []string
		for step := 0; step < 80; step++ {
			repeat := rng.Intn(3) == 0 && rows != nil
			if !repeat {
				rows = rows[:0:0]
				for n := 1 + rng.Intn(5); len(rows) < n; {
					rows = append(rows, runtimeKey(rng, rowPool[rng.Intn(len(rowPool))]))
				}
				cols = nil
				for _, c := range rng.Perm(len(colPool))[:1+rng.Intn(len(colPool))] {
					cols = append(cols, runtimeKey(rng, colPool[c]))
				}
			} else if rng.Intn(2) == 0 {
				rows, cols = cloneKeys(rows), cloneKeys(cols)
			}
			vals := make([]float64, len(rows)*len(cols))
			for k := range vals {
				vals[k] = float64(rng.Intn(1000)) / 8
			}
			b := GetBatch()
			for i, row := range rows {
				for j, col := range cols {
					b.PutFloat(row, col, vals[i*len(cols)+j])
				}
			}
			resolved := batched.table.resolved
			if err := batched.table.Apply(b); err != nil {
				t.Fatal(err)
			}
			b.Release()
			if got := batched.table.resolved - resolved; got != uint64(len(vals)) {
				t.Fatalf("seed %d step %d: a batch of %d puts looked up %d", seed, step, len(vals), got)
			}
			resolved = gridded.table.resolved
			if err := gridded.table.PutFloatRows(rows, cols, func(dst []float64) { copy(dst, vals) }); err != nil {
				t.Fatal(err)
			}
			if repeat && observed && gridded.table.resolved == resolved {
				planned++
			}
			did := fmt.Sprintf("grid %q × %q", rows, cols)
			if rng.Intn(4) == 0 {
				row, col := rows[rng.Intn(len(rows))], cols[rng.Intn(len(cols))]
				for _, s := range []*gridSide{batched, gridded} {
					if err := s.table.Delete(row, col); err != nil {
						t.Fatal(err)
					}
				}
				did += fmt.Sprintf(", then Delete(%s, %s)", row, col)
			}
			if err := compareGridSides(batched, gridded); err != nil {
				t.Fatalf("seed %d step %d, after %s: %v", seed, step, did, err)
			}
		}
		if observed && len(gridded.muts) == 0 {
			t.Fatalf("seed %d: the observer saw no mutation", seed)
		}
	}
	if planned == 0 {
		t.Error("no repeated grid of an observed seed went wholly through the plan")
	}
}

// cloneKeys returns a new list of keys equal to keys but sharing no data
// with them.
func cloneKeys(keys []string) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = strings.Clone(k)
	}
	return out
}

// putGrid writes rows × cols, cell k holding v+k, and fails the test unless
// the write looked up exactly lookups cells rather than finding them in the
// write plan.
func putGrid(t *testing.T, table *Table, rows, cols []string, v float64, lookups int) {
	t.Helper()
	resolved := table.resolved
	err := table.PutFloatRows(rows, cols, func(vals []float64) {
		for k := range vals {
			vals[k] = v + float64(k)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := table.resolved - resolved; got != uint64(lookups) {
		t.Fatalf("grid %v of %q × %q looked up %d cells, want %d", v, rows, cols, got, lookups)
	}
}

// TestPutFloatRowsComparesKeyLists checks that a grid is held to the write
// plan's key lists by content, never by slice identity: a caller that reuses
// its rows slice and rewrites an element between two grids of one length
// gets the new row's cells looked up and written, and the old row's kept;
// and a grid whose lists are equal to the plan's but built of keys cloned at
// run time writes through the plan.
func TestPutFloatRowsComparesKeyLists(t *testing.T) {
	table := newTestTable(t, TableOptions{})
	rows, cols := []string{"r0", "r1", "r2"}, []string{"a", "b"}
	for _, col := range cols {
		if err := table.PutFloat("r3", col, -1); err != nil {
			t.Fatal(err)
		}
	}
	putGrid(t, table, rows, cols, 10, 6) // adds cells, which drops the plan
	putGrid(t, table, rows, cols, 20, 6)
	putGrid(t, table, rows, cols, 30, 0)
	rows[1] = "r3"
	putGrid(t, table, rows, cols, 40, 2)
	for _, c := range []struct {
		row, col string
		want     float64
	}{{"r0", "a", 40}, {"r1", "a", 32}, {"r1", "b", 33}, {"r3", "a", 42}, {"r3", "b", 43}, {"r2", "b", 45}} {
		if got, _ := table.GetFloat(c.row, c.col); got != c.want {
			t.Errorf("%s/%s = %v, want %v", c.row, c.col, got, c.want)
		}
	}
	putGrid(t, table, cloneKeys(rows), cloneKeys(cols), 50, 0)
	if got, _ := table.GetFloat("r3", "b"); got != 53 {
		t.Errorf("r3/b = %v after the cloned grid, want 53", got)
	}
}

// TestPutFloatRowsBesideStaleFloats writes grids through plans recorded
// while the table's float array was absent, current and stale, and after
// each step requires ScanColumns and ScanFloatRows to equal Scan. A grid on
// a table never read; the first ScanColumns, which builds the array and so
// drops the plan, whose entries hold no float slots; the same grid, looked
// up again, and once more, through the plan; a grid that adds cells, which
// makes the array stale, and the same keys twice more with no read between,
// the second through a plan recorded beside the stale array; and the same
// keys after the read that rebuilt the array, looked up again.
func TestPutFloatRowsBesideStaleFloats(t *testing.T) {
	table := newTestTable(t, TableOptions{})
	small, large, cols := []string{"r0", "r1"}, []string{"r0", "r1", "r2"}, []string{"a", "b"}
	for step, grids := range []func(){
		func() { putGrid(t, table, small, cols, 10, 4) },
		func() { putGrid(t, table, small, cols, 20, 4) },
		func() { putGrid(t, table, small, cols, 30, 0) },
		func() {
			putGrid(t, table, large, cols, 40, 6)
			putGrid(t, table, large, cols, 50, 6)
			putGrid(t, table, large, cols, 60, 0)
		},
		func() { putGrid(t, table, large, cols, 70, 6) },
	} {
		grids()
		var wantRows []string
		var wantVals []float64
		cells := table.Scan(ScanOptions{})
		for _, c := range cells {
			v, _ := c.FloatValue()
			if len(wantRows) == 0 || wantRows[len(wantRows)-1] != c.Row {
				wantRows = append(wantRows, c.Row)
			}
			wantVals = append(wantVals, v)
		}
		if got, _ := table.ScanColumns(ScanOptions{}, nil); !equalColumns(got, floatColumns(cells)) {
			t.Fatalf("step %d: ScanColumns = %v, Scan %v", step, got, cells)
		}
		table.ScanFloatRows(cols, func(keys []string, vals []float64, _ []bool) {
			if !slices.Equal(keys, wantRows) || !slices.Equal(vals, wantVals) {
				t.Fatalf("step %d: ScanFloatRows = %q %v, Scan %q %v", step, keys, vals, wantRows, wantVals)
			}
		})
	}
}

// compareGridSides returns how the batched side differs from the gridded
// one, or nil.
func compareGridSides(batched, gridded *gridSide) error {
	if a, b := batched.store.Dump(), gridded.store.Dump(); !bytes.Equal(a, b) {
		return fmt.Errorf("dumps differ:\nApply:\n%s\nPutFloatRows:\n%s", a, b)
	}
	if a, b := batched.table.Version(), gridded.table.Version(); a != b {
		return fmt.Errorf("Version %d after Apply, %d after PutFloatRows", a, b)
	}
	if a, b := batched.store.Clock(), gridded.store.Clock(); a != b {
		return fmt.Errorf("Clock %d after Apply, %d after PutFloatRows", a, b)
	}
	for _, opts := range []ScanOptions{{}, {ColumnPrefix: "c"}} {
		a, av := batched.table.ScanColumns(opts, nil)
		b, bv := gridded.table.ScanColumns(opts, nil)
		if !equalColumns(a, b) || av != bv {
			return fmt.Errorf("ScanColumns(%+v) = %v @%d after Apply, %v @%d after PutFloatRows", opts, a, av, b, bv)
		}
	}
	if !reflect.DeepEqual(batched.muts, gridded.muts) {
		return fmt.Errorf("observers saw\n%v after Apply,\n%v after PutFloatRows", batched.muts, gridded.muts)
	}
	if a, b := batched.reg.Snapshot().Counters, gridded.reg.Snapshot().Counters; !reflect.DeepEqual(a, b) {
		return fmt.Errorf("counters %v after Apply, %v after PutFloatRows", a, b)
	}
	if a, b := batched.spans.spans, gridded.spans.spans; !slices.Equal(a, b) {
		return fmt.Errorf("spans %q after Apply, %q after PutFloatRows", a, b)
	}
	return nil
}

// TestPutFloatRowsRejectsEmptyKeys checks that a grid naming an empty row or
// column key returns ErrEmptyKey before fill runs and leaves the table and
// the store clock untouched, and that a grid of zero cells is a no-op that
// calls no fill and reserves no timestamp.
func TestPutFloatRowsRejectsEmptyKeys(t *testing.T) {
	table := newTestTable(t, TableOptions{})
	if err := table.PutFloatRows([]string{"r"}, []string{"c"}, func(v []float64) { v[0] = 1 }); err != nil {
		t.Fatal(err)
	}
	clock, version := table.store.Clock(), table.Version()
	filled := false
	fill := func([]float64) { filled = true }
	for _, tc := range []struct {
		rows, cols []string
		err        error
	}{
		{[]string{"r", ""}, []string{"c"}, ErrEmptyKey},
		{[]string{"r"}, []string{"c", ""}, ErrEmptyKey},
		{nil, []string{"c"}, nil},
		{[]string{"r"}, nil, nil},
		{[]string{""}, nil, nil},
	} {
		if err := table.PutFloatRows(tc.rows, tc.cols, fill); !errors.Is(err, tc.err) || (err == nil) != (tc.err == nil) {
			t.Errorf("PutFloatRows(%q, %q) = %v, want %v", tc.rows, tc.cols, err, tc.err)
		}
		if filled {
			t.Fatalf("PutFloatRows(%q, %q) called fill", tc.rows, tc.cols)
		}
		if c, v := table.store.Clock(), table.Version(); c != clock || v != version {
			t.Fatalf("PutFloatRows(%q, %q) moved the clock %d → %d, the version %d → %d", tc.rows, tc.cols, clock, c, version, v)
		}
	}
	if got, _ := table.GetFloat("r", "c"); got != 1 || len(table.Scan(ScanOptions{})) != 1 {
		t.Errorf("table holds %d cells, r/c = %v; want the one cell, 1", len(table.Scan(ScanOptions{})), got)
	}
}

// TestPutFloatRowsBufferIsZeroedAndSized checks that fill gets a buffer of
// exactly len(rows)*len(cols) zeros, even after a larger grid used the pool,
// and that a cell fill leaves unwritten stores 0.
func TestPutFloatRowsBufferIsZeroedAndSized(t *testing.T) {
	table := newTestTable(t, TableOptions{})
	rows := make([]string, 40)
	for i := range rows {
		rows[i] = "r" + strconv.Itoa(i)
	}
	cols := []string{"a", "b", "c"}
	for _, n := range []int{40, 2, 40, 1} {
		err := table.PutFloatRows(rows[:n], cols, func(vals []float64) {
			if len(vals) != n*len(cols) {
				t.Fatalf("fill got %d values for a %d × %d grid", len(vals), n, len(cols))
			}
			for k, v := range vals {
				if v != 0 {
					t.Fatalf("fill got value %d = %v, want a zeroed buffer", k, v)
				}
			}
			for k := range vals {
				if k%2 == 0 {
					vals[k] = float64(n)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// The last grid, one row, wrote 1 at r0/a and left r0/b unwritten.
	if a, _ := table.GetFloat("r0", "a"); a != 1 {
		t.Errorf("r0/a = %v, want 1", a)
	}
	if b, ok := table.GetFloat("r0", "b"); !ok || b != 0 {
		t.Errorf("r0/b = %v, %v; want 0, true", b, ok)
	}
}
