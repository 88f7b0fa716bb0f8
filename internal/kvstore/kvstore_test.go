package kvstore

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"testing/quick"

	"smartflux/internal/metric"
)

func newTestTable(t *testing.T, opts TableOptions) *Table {
	t.Helper()
	store := New()
	table, err := store.CreateTable("t", opts)
	if err != nil {
		t.Fatal(err)
	}
	return table
}

func TestPutGet(t *testing.T) {
	table := newTestTable(t, TableOptions{})
	if err := table.Put("r1", "c1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	got, ok := table.Get("r1", "c1")
	if !ok || string(got) != "v1" {
		t.Fatalf("Get = %q, %v; want v1, true", got, ok)
	}
	if _, ok := table.Get("r1", "missing"); ok {
		t.Error("Get of missing column should report !ok")
	}
	if _, ok := table.Get("missing", "c1"); ok {
		t.Error("Get of missing row should report !ok")
	}
}

func TestPutEmptyKeys(t *testing.T) {
	table := newTestTable(t, TableOptions{})
	if err := table.Put("", "c", nil); !errors.Is(err, ErrEmptyKey) {
		t.Errorf("empty row: want ErrEmptyKey, got %v", err)
	}
	if err := table.Put("r", "", nil); !errors.Is(err, ErrEmptyKey) {
		t.Errorf("empty column: want ErrEmptyKey, got %v", err)
	}
}

func TestPutCopiesValue(t *testing.T) {
	table := newTestTable(t, TableOptions{})
	buf := []byte("abc")
	if err := table.Put("r", "c", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	got, _ := table.Get("r", "c")
	if string(got) != "abc" {
		t.Errorf("stored value aliased caller buffer: %q", got)
	}
}

func TestVersioning(t *testing.T) {
	table := newTestTable(t, TableOptions{MaxVersions: 3})
	for i := 0; i < 5; i++ {
		if err := table.Put("r", "c", []byte{byte('0' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	versions := table.GetVersions("r", "c", 0)
	if len(versions) != 3 {
		t.Fatalf("retained %d versions, want 3", len(versions))
	}
	// Newest first.
	if string(versions[0].Value) != "4" || string(versions[2].Value) != "2" {
		t.Errorf("unexpected version order: %q ... %q", versions[0].Value, versions[2].Value)
	}
	if versions[0].Timestamp <= versions[1].Timestamp {
		t.Error("timestamps must decrease from newest to oldest")
	}
	limited := table.GetVersions("r", "c", 2)
	if len(limited) != 2 {
		t.Errorf("GetVersions(max=2) returned %d", len(limited))
	}
}

func TestGetWithPrevious(t *testing.T) {
	table := newTestTable(t, TableOptions{})
	if _, _, curOK, prevOK := table.GetWithPrevious("r", "c"); curOK || prevOK {
		t.Error("missing cell must report neither version")
	}
	table.Put("r", "c", []byte("a"))
	cur, _, curOK, prevOK := table.GetWithPrevious("r", "c")
	if !curOK || prevOK || string(cur) != "a" {
		t.Errorf("after one put: cur=%q curOK=%v prevOK=%v", cur, curOK, prevOK)
	}
	table.Put("r", "c", []byte("b"))
	cur, prev, curOK, prevOK := table.GetWithPrevious("r", "c")
	if !curOK || !prevOK || string(cur) != "b" || string(prev) != "a" {
		t.Errorf("after two puts: cur=%q prev=%q", cur, prev)
	}
}

func TestDelete(t *testing.T) {
	table := newTestTable(t, TableOptions{})
	table.Put("r", "c", []byte("v"))
	if err := table.Delete("r", "c"); err != nil {
		t.Fatal(err)
	}
	if _, ok := table.Get("r", "c"); ok {
		t.Error("cell still present after delete")
	}
	if table.RowCount() != 0 {
		t.Error("row should vanish when its last cell is deleted")
	}
	// Deleting again is a no-op.
	if err := table.Delete("r", "c"); err != nil {
		t.Errorf("double delete: %v", err)
	}
	if err := table.Delete("", "c"); !errors.Is(err, ErrEmptyKey) {
		t.Errorf("want ErrEmptyKey, got %v", err)
	}
}

func TestScanOrderingAndFilters(t *testing.T) {
	table := newTestTable(t, TableOptions{})
	table.Put("b", "y", []byte("4"))
	table.Put("a", "x", []byte("1"))
	table.Put("a", "y", []byte("2"))
	table.Put("c", "x", []byte("5"))
	table.Put("b", "x", []byte("3"))

	cells := table.Scan(ScanOptions{})
	var keys []string
	for _, c := range cells {
		keys = append(keys, c.Key())
	}
	want := []string{"a/x", "a/y", "b/x", "b/y", "c/x"}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("scan order %v, want %v", keys, want)
	}

	if got := table.Scan(ScanOptions{RowPrefix: "b"}); len(got) != 2 {
		t.Errorf("RowPrefix=b returned %d cells, want 2", len(got))
	}
	if got := table.Scan(ScanOptions{ColumnPrefix: "x"}); len(got) != 3 {
		t.Errorf("ColumnPrefix=x returned %d cells, want 3", len(got))
	}
	if got := table.Scan(ScanOptions{StartRow: "b"}); len(got) != 3 {
		t.Errorf("StartRow=b returned %d cells, want 3", len(got))
	}
	if got := table.Scan(ScanOptions{EndRow: "b"}); len(got) != 2 {
		t.Errorf("EndRow=b returned %d cells, want 2", len(got))
	}
	if got := table.Scan(ScanOptions{Limit: 2}); len(got) != 2 {
		t.Errorf("Limit=2 returned %d cells", len(got))
	}
}

func TestScanAfterDeleteUsesFreshCaches(t *testing.T) {
	table := newTestTable(t, TableOptions{})
	table.Put("a", "x", []byte("1"))
	table.Put("b", "x", []byte("2"))
	_ = table.Scan(ScanOptions{}) // warm caches
	table.Delete("a", "x")
	cells := table.Scan(ScanOptions{})
	if len(cells) != 1 || cells[0].Row != "b" {
		t.Fatalf("scan after delete = %+v", cells)
	}
	table.Put("c", "y", []byte("3"))
	cells = table.Scan(ScanOptions{})
	if len(cells) != 2 || cells[1].Row != "c" {
		t.Fatalf("scan after insert = %+v", cells)
	}
}

func TestObserverReceivesMutations(t *testing.T) {
	table := newTestTable(t, TableOptions{})
	var got []Mutation
	table.Subscribe(ObserverFunc(func(m Mutation) { got = append(got, m) }))

	table.Put("r", "c", []byte("a"))
	table.Put("r", "c", []byte("b"))
	table.Delete("r", "c")

	if len(got) != 3 {
		t.Fatalf("observer saw %d mutations, want 3", len(got))
	}
	if got[0].Kind != MutationPut || got[0].Old != nil || string(got[0].New) != "a" {
		t.Errorf("first mutation: %+v", got[0])
	}
	if string(got[1].Old) != "a" || string(got[1].New) != "b" {
		t.Errorf("second mutation old/new: %q/%q", got[1].Old, got[1].New)
	}
	if got[2].Kind != MutationDelete || string(got[2].Old) != "b" || got[2].New != nil {
		t.Errorf("delete mutation: %+v", got[2])
	}
	if got[0].Timestamp >= got[1].Timestamp || got[1].Timestamp >= got[2].Timestamp {
		t.Error("timestamps must be strictly increasing")
	}
}

func TestBatchAtomicVisibilityAndNotifications(t *testing.T) {
	table := newTestTable(t, TableOptions{})
	table.Put("keep", "c", []byte("old"))

	var muts []Mutation
	table.Subscribe(ObserverFunc(func(m Mutation) { muts = append(muts, m) }))

	batch := NewBatch().
		Put("a", "c", []byte("1")).
		Put("b", "c", []byte("2")).
		Delete("keep", "c").
		Delete("missing", "c") // silently skipped
	if batch.Len() != 4 {
		t.Fatalf("batch len = %d", batch.Len())
	}
	if err := table.Apply(batch); err != nil {
		t.Fatal(err)
	}
	if table.CellCount() != 2 {
		t.Errorf("cell count = %d, want 2", table.CellCount())
	}
	// Missing-cell delete produces no mutation.
	if len(muts) != 3 {
		t.Errorf("observer saw %d mutations, want 3", len(muts))
	}
}

func TestBatchValidatesBeforeApplying(t *testing.T) {
	table := newTestTable(t, TableOptions{})
	batch := NewBatch().Put("ok", "c", []byte("1")).Put("", "c", []byte("2"))
	if err := table.Apply(batch); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("want ErrEmptyKey, got %v", err)
	}
	if table.CellCount() != 0 {
		t.Error("failed batch must leave the table untouched")
	}
	if err := table.Apply(nil); err != nil {
		t.Errorf("nil batch: %v", err)
	}
}

func TestStoreTableManagement(t *testing.T) {
	store := New()
	if _, err := store.CreateTable("", TableOptions{}); !errors.Is(err, ErrEmptyKey) {
		t.Errorf("empty name: want ErrEmptyKey, got %v", err)
	}
	if _, err := store.CreateTable("a", TableOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.CreateTable("a", TableOptions{}); !errors.Is(err, ErrTableExists) {
		t.Errorf("want ErrTableExists, got %v", err)
	}
	if _, err := store.Table("missing"); !errors.Is(err, ErrTableNotFound) {
		t.Errorf("want ErrTableNotFound, got %v", err)
	}
	if _, err := store.EnsureTable("a", TableOptions{}); err != nil {
		t.Errorf("EnsureTable existing: %v", err)
	}
	if _, err := store.EnsureTable("b", TableOptions{}); err != nil {
		t.Errorf("EnsureTable new: %v", err)
	}
	names := store.TableNames()
	if !reflect.DeepEqual(names, []string{"a", "b"}) {
		t.Errorf("TableNames = %v", names)
	}
	if err := store.DropTable("a"); err != nil {
		t.Fatal(err)
	}
	if err := store.DropTable("a"); !errors.Is(err, ErrTableNotFound) {
		t.Errorf("double drop: want ErrTableNotFound, got %v", err)
	}
}

func TestTimestampsAreStoreWideMonotonic(t *testing.T) {
	store := New()
	t1, _ := store.CreateTable("t1", TableOptions{})
	t2, _ := store.CreateTable("t2", TableOptions{})
	t1.Put("r", "c", []byte("a"))
	t2.Put("r", "c", []byte("b"))
	v1 := t1.GetVersions("r", "c", 1)
	v2 := t2.GetVersions("r", "c", 1)
	if v2[0].Timestamp <= v1[0].Timestamp {
		t.Error("timestamps must increase across tables of one store")
	}
}

func TestFloatCodecRoundTrip(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) {
			return true // NaN != NaN; compare bits instead below
		}
		got, err := DecodeFloat(EncodeFloat(v))
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// NaN round-trips bit-exactly.
	nan := math.NaN()
	got, err := DecodeFloat(EncodeFloat(nan))
	if err != nil || !math.IsNaN(got) {
		t.Errorf("NaN roundtrip: %v, %v", got, err)
	}
	if _, err := DecodeFloat([]byte{1, 2, 3}); !errors.Is(err, ErrBadFloat) {
		t.Errorf("short buffer: want ErrBadFloat, got %v", err)
	}
}

func TestPutGetFloatAndScanState(t *testing.T) {
	table := newTestTable(t, TableOptions{})
	if err := table.PutFloat("r1", "c", 1.5); err != nil {
		t.Fatal(err)
	}
	table.PutFloat("r2", "c", 2.5)
	table.PutFloat("r2", "d", 3.5)
	table.Put("r3", "c", []byte("not-a-float"))

	v, ok := table.GetFloat("r1", "c")
	if !ok || v != 1.5 {
		t.Errorf("GetFloat = %v, %v", v, ok)
	}
	if _, ok := table.GetFloat("r3", "c"); ok {
		t.Error("GetFloat on non-float cell should report !ok")
	}

	// Non-float cells are skipped; elements come out in key order.
	for _, tc := range []struct {
		name string
		opts ScanOptions
		want metric.State
	}{
		{"all", ScanOptions{}, metric.State{{Key: "r1/c", Val: 1.5}, {Key: "r2/c", Val: 2.5}, {Key: "r2/d", Val: 3.5}}},
		{"row prefix", ScanOptions{RowPrefix: "r1"}, metric.State{{Key: "r1/c", Val: 1.5}}},
		{"row range", ScanOptions{StartRow: "r2", EndRow: "r3"}, metric.State{{Key: "r2/c", Val: 2.5}, {Key: "r2/d", Val: 3.5}}},
		{"column prefix", ScanOptions{ColumnPrefix: "d"}, metric.State{{Key: "r2/d", Val: 3.5}}},
		{"nothing", ScanOptions{RowPrefix: "x"}, metric.State{}},
	} {
		got, version := table.ScanState(tc.opts)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: ScanState = %v, want %v", tc.name, got, tc.want)
		}
		if version != table.Version() {
			t.Errorf("%s: ScanState version = %d, table at %d", tc.name, version, table.Version())
		}
	}
}

// TestScanStateKeyOrder pins the two places where (row, column) order and
// element-key order part ways: a row key that is a proper prefix of another
// followed by a byte below '/', and two cells whose element keys collide.
func TestScanStateKeyOrder(t *testing.T) {
	table := newTestTable(t, TableOptions{})
	for i, row := range []string{"a", "a-b", "a.b", "a0", "a b"} {
		table.PutFloat(row, "c", float64(i))
	}
	got, _ := table.ScanState(ScanOptions{})
	want := metric.State{{Key: "a b/c", Val: 4}, {Key: "a-b/c", Val: 1}, {Key: "a.b/c", Val: 2}, {Key: "a/c", Val: 0}, {Key: "a0/c", Val: 3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("prefix rows: ScanState = %v, want %v", got, want)
	}

	// Row "a" column "b/c" and row "a/b" column "c" are both "a/b/c": one
	// element, holding the later cell in (row, column) order.
	table = newTestTable(t, TableOptions{})
	table.PutFloat("a/b", "c", 2)
	table.PutFloat("a", "b/c", 1)
	table.PutFloat("a", "z", 3)
	want = metric.State{{Key: "a/b/c", Val: 2}, {Key: "a/z", Val: 3}}
	for i := 0; i < 20; i++ { // map-order independent
		if got, _ := table.ScanState(ScanOptions{}); !reflect.DeepEqual(got, want) {
			t.Fatalf("colliding keys: ScanState = %v, want %v", got, want)
		}
	}
}

// TestScanStateCachedKeys checks the per-row element-key cache: steady-state
// scans share key strings and allocate only the result, and a cell deleted
// and reinserted — or a new column — rebuilds the row's keys.
func TestScanStateCachedKeys(t *testing.T) {
	table := newTestTable(t, TableOptions{})
	for i := 0; i < 50; i++ {
		table.PutFloat("r"+strconv.Itoa(i), "v", float64(i))
	}
	first, _ := table.ScanState(ScanOptions{})
	if allocs := testing.AllocsPerRun(20, func() { table.ScanState(ScanOptions{}) }); allocs > 1 {
		t.Errorf("steady-state ScanState allocates %v objects, want 1 (the result)", allocs)
	}

	table.Delete("r7", "v")
	if got, _ := table.ScanState(ScanOptions{}); len(got) != 49 {
		t.Fatalf("after delete: %d elements, want 49", len(got))
	}
	table.PutFloat("r7", "v", 70)
	table.PutFloat("r7", "w", 71)
	got, _ := table.ScanState(ScanOptions{RowPrefix: "r7"})
	want := metric.State{{Key: "r7/v", Val: 70}, {Key: "r7/w", Val: 71}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("after reinsert: ScanState = %v, want %v", got, want)
	}
	if len(first) != 50 || first[0] != (metric.Elem{Key: "r0/v", Val: 0}) {
		t.Errorf("an earlier state changed under later writes: %v", first[:1])
	}
}

// TestTableVersion checks the mutation version moves on every content change
// — including the paths that bypass Put — and on nothing else.
func TestTableVersion(t *testing.T) {
	table := newTestTable(t, TableOptions{})
	last := table.Version()
	step := func(name string, wantMove bool, fn func()) {
		t.Helper()
		fn()
		v := table.Version()
		if moved := v != last; moved != wantMove {
			t.Errorf("%s: version %d -> %d, want moved=%v", name, last, v, wantMove)
		}
		if v < last {
			t.Errorf("%s: version went backwards, %d -> %d", name, last, v)
		}
		last = v
	}
	step("Put", true, func() { table.PutFloat("r", "c", 1) })
	step("Put same value", true, func() { table.PutFloat("r", "c", 1) })
	step("Apply put", true, func() { table.Apply(NewBatch().PutFloat("r", "d", 2)) })
	step("Apply delete", true, func() { table.Apply(NewBatch().Delete("r", "d")) })
	step("Apply delete of a missing cell", false, func() { table.Apply(NewBatch().Delete("r", "nope")) })
	step("Delete", true, func() { table.Delete("r", "c") })
	step("Delete of a missing cell", false, func() { table.Delete("r", "c") })
	step("ReplayPut", true, func() { table.ReplayPut("r", "c", EncodeFloat(3), 100) })
	step("ReplayPut duplicate", false, func() { table.ReplayPut("r", "c", EncodeFloat(3), 100) })
	step("ReplayDelete", true, func() { table.ReplayDelete("r", "c") })
	step("ReplayDelete of a missing cell", false, func() { table.ReplayDelete("r", "c") })
	table.PutFloat("r", "c", 4)
	last = table.Version()
	step("reads", false, func() {
		table.Get("r", "c")
		table.GetWithPrevious("r", "c")
		table.GetVersions("r", "c", 0)
		table.Scan(ScanOptions{})
		table.ScanState(ScanOptions{})
		table.ScanPages(ScanOptions{}, 0, func([]Cell, bool) error { return nil })
		table.RowCount()
		table.CellCount()
	})
}

func TestConcurrentAccess(t *testing.T) {
	table := newTestTable(t, TableOptions{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				row := fmt.Sprintf("r%d", g)
				if err := table.PutFloat(row, "c", float64(i)); err != nil {
					t.Error(err)
					return
				}
				table.Get(row, "c")
				table.Scan(ScanOptions{RowPrefix: row})
			}
		}(g)
	}
	wg.Wait()
	if table.RowCount() != 8 {
		t.Errorf("RowCount = %d, want 8", table.RowCount())
	}
}

func TestMutationKindString(t *testing.T) {
	if MutationPut.String() != "put" || MutationDelete.String() != "delete" {
		t.Error("unexpected MutationKind strings")
	}
	if MutationKind(99).String() == "" {
		t.Error("unknown kind must still render")
	}
}

func TestScanValueIsolation(t *testing.T) {
	table := newTestTable(t, TableOptions{})
	table.Put("r", "c", []byte("abc"))
	cells := table.Scan(ScanOptions{})
	cells[0].Version.Value[0] = 'X'
	got, _ := table.Get("r", "c")
	if string(got) != "abc" {
		t.Error("scan must return copies, not aliases")
	}
}
