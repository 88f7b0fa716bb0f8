package kvstore

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

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

func TestDelete(t *testing.T) {
	table := newTestTable(t, TableOptions{})
	table.Put("r", "c", []byte("v"))
	if err := table.Delete("r", "c"); err != nil {
		t.Fatal(err)
	}
	if _, ok := table.Get("r", "c"); ok {
		t.Error("cell still present after delete")
	}
	if len(table.rows) != 0 {
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
		keys = append(keys, c.Row+"/"+c.Column)
	}
	want := []string{"a/x", "a/y", "b/x", "b/y", "c/x"}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("scan order %v, want %v", keys, want)
	}

	if got := table.Scan(ScanOptions{ColumnPrefix: "x"}); len(got) != 3 {
		t.Errorf("ColumnPrefix=x returned %d cells, want 3", len(got))
	}
}

func TestScanAfterDeleteUsesFreshCaches(t *testing.T) {
	table := newTestTable(t, TableOptions{})
	table.Put("a", "x", []byte("1"))
	table.Put("b", "x", []byte("2"))
	_ = table.Scan(ScanOptions{}) // build the sorted row list
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

// TestScansShareTheReadLock checks that each scan form, and History, runs
// while another reader holds the table lock once the sorted row list is
// current — steps reading one input do not take turns, nor does a WAL
// snapshot hold them up — and that a write adding a row still shows in the
// next scan, which rebuilds the list under the write lock.
func TestScansShareTheReadLock(t *testing.T) {
	table := newTestTable(t, TableOptions{})
	scans := []struct {
		name string
		scan func() int // cells seen
	}{
		{"Scan", func() int { return len(table.Scan(ScanOptions{})) }},
		{"ScanColumns", func() int { c, _ := table.ScanColumns(ScanOptions{}, nil); return c.Len() }},
		{"ScanFloatRows", func() int {
			n := 0
			table.ScanFloatRows([]string{"x"}, func(rows []string, _ []float64, _ []bool) { n = len(rows) })
			return n
		}},
		{"History", func() int {
			n := 0
			table.History(func([]Mutation) error { n++; return nil })
			return n
		}},
	}
	for i, s := range scans {
		table.PutFloat("r"+strconv.Itoa(i), "x", 1) // a new row: the row list is stale
		if got := s.scan(); got != i+1 {
			t.Fatalf("%s after a new row: %d cells, want %d", s.name, got, i+1)
		}
		table.mu.RLock() // a reader in the middle of its walk
		done := make(chan int, 1)
		go func() { done <- s.scan() }()
		select {
		case got := <-done:
			if got != i+1 {
				t.Errorf("%s beside a reader: %d cells, want %d", s.name, got, i+1)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%s waited for another reader with the row list current", s.name)
		}
		table.mu.RUnlock()
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
	if got[0].Kind != MutationPut || string(got[0].New) != "a" {
		t.Errorf("first mutation: %+v", got[0])
	}
	if got[1].Kind != MutationPut || string(got[1].New) != "b" {
		t.Errorf("second mutation: %+v", got[1])
	}
	if got[2].Kind != MutationDelete || got[2].New != nil {
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
	if len(batch.ops) != 4 {
		t.Fatalf("batch len = %d", len(batch.ops))
	}
	if err := table.Apply(batch); err != nil {
		t.Fatal(err)
	}
	if n := len(table.Scan(ScanOptions{})); n != 2 {
		t.Errorf("cell count = %d, want 2", n)
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
	if len(table.Scan(ScanOptions{})) != 0 {
		t.Error("failed batch must leave the table untouched")
	}
	if err := table.Apply(nil); err != nil {
		t.Errorf("nil batch: %v", err)
	}
}

// TestApplyAllocations pins what a write costs once every cell holds
// MaxVersions versions: building a 3 600-op float batch in a pooled batch
// and applying it allocates nothing; one observer adds only the batch's
// mutation records and the arena their values are carved from.
func TestApplyAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	table := newTestTable(t, TableOptions{})
	rows := make([]string, 1200)
	for i := range rows {
		rows[i] = "v" + strconv.Itoa(i)
	}
	cols := []string{"xway", "pos", "speed"}
	var wave float64
	apply := func() {
		b := GetBatch().Grow(len(rows) * len(cols))
		for _, row := range rows {
			for _, col := range cols {
				b.PutFloat(row, col, wave)
			}
		}
		if err := table.Apply(b); err != nil {
			t.Fatal(err)
		}
		b.Release()
		wave++
	}
	for i := 0; i < DefaultMaxVersions; i++ {
		apply()
	}
	if allocs := testing.AllocsPerRun(20, apply); allocs != 0 {
		t.Errorf("unobserved Apply allocates %v objects per batch, want 0", allocs)
	}
	var seen int
	table.Subscribe(ObserverFunc(func(Mutation) { seen++ }))
	if allocs := testing.AllocsPerRun(20, apply); allocs > 2 {
		t.Errorf("observed Apply allocates %v objects per batch, want at most 2", allocs)
	}
	if want := 21 * len(rows) * len(cols); seen != want {
		t.Errorf("observer saw %d mutations, want %d", seen, want)
	}
	if v, _ := table.GetFloat("v7", "pos"); v != wave-1 {
		t.Errorf("latest value %v, want %v", v, wave-1)
	}
}

// TestPutFloatRowsAllocations pins what a grid write costs once every cell
// holds MaxVersions versions: a 1 200 × 3 PutFloatRows of an unobserved
// table, its buffer taken from the pool, allocates nothing.
func TestPutFloatRowsAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	table := newTestTable(t, TableOptions{})
	rows := make([]string, 1200)
	for i := range rows {
		rows[i] = "v" + strconv.Itoa(i)
	}
	cols := []string{"xway", "pos", "speed"}
	var wave float64
	fill := func(vals []float64) {
		for k := range vals {
			vals[k] = wave
		}
	}
	put := func() {
		if err := table.PutFloatRows(rows, cols, fill); err != nil {
			t.Fatal(err)
		}
		wave++
	}
	for i := 0; i < DefaultMaxVersions; i++ {
		put()
	}
	if allocs := testing.AllocsPerRun(20, put); allocs != 0 {
		t.Errorf("unobserved PutFloatRows allocates %v objects per grid, want 0", allocs)
	}
	if v, _ := table.GetFloat("v7", "pos"); v != wave-1 {
		t.Errorf("latest value %v, want %v", v, wave-1)
	}
}

// TestFloatReadsAllocateNothing checks that a float read of an existing float
// cell reads the stored bits without building bytes.
func TestFloatReadsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	table, err := New().EnsureTable("t", TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := table.PutFloat("r", "c", 2.5); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if v, ok := table.GetFloat("r", "c"); !ok || v != 2.5 {
			t.Fatalf("GetFloat = %v, %v", v, ok)
		}
	}); allocs != 0 {
		t.Errorf("Table.GetFloat allocates %v objects, want 0", allocs)
	}
}

// TestWindowHoldsNoPointer checks that a version window's element type holds
// no pointer, so the collector never scans a window.
func TestWindowHoldsNoPointer(t *testing.T) {
	var hasPointer func(reflect.Type) bool
	hasPointer = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if hasPointer(typ.Field(i).Type) {
					return true
				}
			}
			return false
		case reflect.Array:
			return hasPointer(typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
			reflect.Func, reflect.Interface, reflect.String:
			return true
		default:
			return false
		}
	}
	elem := reflect.TypeOf(row{}.cells).Elem().Elem()
	if hasPointer(elem) {
		t.Errorf("a version window's element type %v holds a pointer", elem)
	}
	if !hasPointer(reflect.TypeOf(Version{})) {
		t.Error("hasPointer misses the slice in Version")
	}
}

// TestGrownBatchTakesOpsWithoutAllocating checks that a batch grown for n
// ops takes n Puts and PutFloats without allocating.
func TestGrownBatchTakesOpsWithoutAllocating(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	value := []byte("v")
	b := NewBatch().Grow(100)
	if allocs := testing.AllocsPerRun(20, func() {
		b.ops = b.ops[:0]
		for i := 0; i < 50; i++ {
			b.Put("r", "c", value).PutFloat("r", "f", float64(i))
		}
	}); allocs != 0 {
		t.Errorf("filling a batch grown for its ops allocates %v objects, want 0", allocs)
	}
	if len(b.ops) != 100 {
		t.Fatalf("batch holds %d ops, want 100", len(b.ops))
	}
}

// TestReleasedBatchLeavesStoredValues stores values from a pooled batch — a
// float and a caller's slice — then releases and refills pooled batches:
// what the table stored must not move.
func TestReleasedBatchLeavesStoredValues(t *testing.T) {
	table := newTestTable(t, TableOptions{})
	raw := []byte("raw")
	b := GetBatch().Grow(2).PutFloat("r", "f", 1).Put("r", "raw", raw)
	if err := table.Apply(b); err != nil {
		t.Fatal(err)
	}
	b.Release()
	for i := 0; i < 10; i++ {
		b := GetBatch().Grow(2).PutFloat("s", "f", float64(i+2)).Put("s", "raw", []byte("refill"))
		if err := table.Apply(b); err != nil {
			t.Fatal(err)
		}
		b.Release()
	}
	if v, _ := table.GetFloat("r", "f"); v != 1 {
		t.Errorf("float stored from a released batch reads %v, want 1", v)
	}
	if v, _ := table.Get("r", "raw"); string(v) != "raw" {
		t.Errorf("value stored from a released batch reads %q, want %q", v, "raw")
	}
}

// TestLargeMaxVersionsAllocatesByUse gives a table a MaxVersions far beyond
// memory — a kvnet client or a log record can ask for one — and checks that
// writes cost what the versions they store cost, not the bound.
func TestLargeMaxVersionsAllocatesByUse(t *testing.T) {
	table := newTestTable(t, TableOptions{MaxVersions: 1 << 30})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		if err := table.Put("r", "c", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := table.ReplayPut("r", strconv.Itoa(i), []byte{byte(i)}, uint64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("20 writes allocated %d bytes", grew)
	}
	if n := len(table.GetVersions("r", "c", 0)); n != 10 {
		t.Fatalf("cell holds %d versions, want all 10", n)
	}
}

// TestBlobRetention pins how long a value longer than 8 bytes lives: while
// its version is retained, and no longer — it is freed once the version
// leaves its window, or its cell is deleted.
func TestBlobRetention(t *testing.T) {
	table := newTestTable(t, TableOptions{MaxVersions: 2})
	put := func(row string) {
		if err := table.Put(row, "c", make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	// watch returns a channel closed once the cell's latest value is freed.
	watch := func(row string) chan struct{} {
		freed := make(chan struct{})
		v, _ := table.Get(row, "c")
		runtime.AddCleanup(&v[0], func(ch chan struct{}) { close(ch) }, freed)
		return freed
	}
	collected := func(freed chan struct{}, wait time.Duration) bool {
		deadline := time.After(wait)
		for {
			runtime.GC()
			select {
			case <-freed:
				return true
			case <-deadline:
				return false
			case <-time.After(10 * time.Millisecond):
			}
		}
	}
	put("a")
	trimmed := watch("a")
	put("b")
	deleted := watch("b")
	put("a") // a's first version is still retained
	if collected(trimmed, 100*time.Millisecond) {
		t.Fatal("value freed while its version is retained")
	}
	put("a") // and now it leaves the window
	if !collected(trimmed, 5*time.Second) {
		t.Fatal("value outlived its version's window")
	}
	if collected(deleted, 100*time.Millisecond) {
		t.Fatal("value freed while its cell is live")
	}
	if err := table.Delete("b", "c"); err != nil {
		t.Fatal(err)
	}
	if !collected(deleted, 5*time.Second) {
		t.Fatal("value outlived its deleted cell")
	}
}

// TestConcurrentPutsStoreVersionsInTimestampOrder races Puts on one cell: a
// timestamp is drawn under the lock that stores it, so the versions ascend
// newest-last, and replaying the table's History rebuilds the live dump.
func TestConcurrentPutsStoreVersionsInTimestampOrder(t *testing.T) {
	for round := 0; round < 50; round++ {
		table := newTestTable(t, TableOptions{MaxVersions: 100})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if err := table.Put("r", "c", []byte{byte(g), byte(i)}); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		versions := table.GetVersions("r", "c", 0) // newest first
		if len(versions) != 80 {
			t.Fatalf("round %d: %d versions, want 80", round, len(versions))
		}
		for i := 1; i < len(versions); i++ {
			if versions[i-1].Timestamp <= versions[i].Timestamp {
				t.Fatalf("round %d: version %d @%d is not newer than version %d @%d",
					round, i-1, versions[i-1].Timestamp, i, versions[i].Timestamp)
			}
		}
		rebuilt := newTestTable(t, TableOptions{MaxVersions: 100})
		err := table.History(func(cell []Mutation) error {
			for _, m := range cell {
				if err := rebuilt.ReplayPut(m.Row, m.Column, m.New, m.Timestamp); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := string(rebuilt.store.Dump()), string(table.store.Dump()); got != want {
			t.Fatalf("round %d: replayed History differs from the live table:\ngot:\n%swant:\n%s", round, got, want)
		}
	}
}

// TestSubscribeDuringApply subscribes an observer while batches are being
// applied: it must see each batch whole or not at all — every batch from the
// first it sees on — in timestamp order.
func TestSubscribeDuringApply(t *testing.T) {
	table := newTestTable(t, TableOptions{})
	const perBatch = 5
	var (
		got        []Mutation // written by the applying goroutine only
		subscribed atomic.Bool
		done       = make(chan struct{})
	)
	go func() {
		defer close(done)
		// Keep applying until one batch has certainly been applied after
		// the subscription.
		for last := false; !last; {
			last = subscribed.Load()
			b := NewBatch()
			for j := 0; j < perBatch; j++ {
				b.Put("r", "c"+strconv.Itoa(j), []byte("v"))
			}
			if err := table.Apply(b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	table.Subscribe(ObserverFunc(func(m Mutation) { got = append(got, m) }))
	subscribed.Store(true)
	<-done
	// One writer on one table: the batches' timestamps are consecutive, so
	// a gap, a torn batch or a reordering shows in the sequence.
	if len(got) == 0 || len(got)%perBatch != 0 {
		t.Fatalf("observer saw %d mutations, want a positive multiple of %d", len(got), perBatch)
	}
	for i, m := range got {
		if want := "c" + strconv.Itoa(i%perBatch); m.Column != want {
			t.Fatalf("mutation %d writes %s, want %s", i, m.Column, want)
		}
		if i > 0 && m.Timestamp != got[i-1].Timestamp+1 {
			t.Fatalf("mutation %d @%d does not follow @%d", i, m.Timestamp, got[i-1].Timestamp)
		}
	}
	if last, clock := got[len(got)-1].Timestamp, table.store.Clock(); last != clock {
		t.Fatalf("observer's last mutation @%d, the last batch ended @%d", last, clock)
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

func TestPutGetFloatAndScanColumns(t *testing.T) {
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
		want metric.Columns
	}{
		{"all", ScanOptions{}, metric.Columns{Keys: []string{"r1/c", "r2/c", "r2/d"}, Vals: []float64{1.5, 2.5, 3.5}}},
		{"column prefix", ScanOptions{ColumnPrefix: "d"}, metric.Columns{Keys: []string{"r2/d"}, Vals: []float64{3.5}}},
		{"nothing", ScanOptions{ColumnPrefix: "x"}, metric.Columns{Keys: []string{}, Vals: []float64{}}},
	} {
		got, version := table.ScanColumns(tc.opts, nil)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: ScanColumns = %v, want %v", tc.name, got, tc.want)
		}
		if version != table.Version() {
			t.Errorf("%s: ScanColumns version = %d, table at %d", tc.name, version, table.Version())
		}
	}
}

// TestScanColumnsKeyOrder pins the two places where (row, column) order and
// element-key order part ways: a row key that is a proper prefix of another
// followed by a byte below '/', and two cells whose element keys collide.
func TestScanColumnsKeyOrder(t *testing.T) {
	table := newTestTable(t, TableOptions{})
	for i, row := range []string{"a", "a-b", "a.b", "a0", "a b"} {
		table.PutFloat(row, "c", float64(i))
	}
	got, _ := table.ScanColumns(ScanOptions{}, nil)
	want := metric.Columns{Keys: []string{"a b/c", "a-b/c", "a.b/c", "a/c", "a0/c"}, Vals: []float64{4, 1, 2, 0, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("prefix rows: ScanColumns = %v, want %v", got, want)
	}

	// Row "a" column "b/c" and row "a/b" column "c" are both "a/b/c": one
	// element, holding the later cell in (row, column) order.
	table = newTestTable(t, TableOptions{})
	table.PutFloat("a/b", "c", 2)
	table.PutFloat("a", "b/c", 1)
	table.PutFloat("a", "z", 3)
	want = metric.Columns{Keys: []string{"a/b/c", "a/z"}, Vals: []float64{2, 3}}
	for i := 0; i < 20; i++ { // map-order independent
		if got, _ := table.ScanColumns(ScanOptions{}, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("colliding keys: ScanColumns = %v, want %v", got, want)
		}
	}
}

// TestScanColumnsCachedKeys checks the element keys a row keeps with its
// cells: steady-state scans share key strings and allocate only the result,
// and a cell deleted and reinserted — or a new column — has its key.
func TestScanColumnsCachedKeys(t *testing.T) {
	table := newTestTable(t, TableOptions{})
	for i := 0; i < 50; i++ {
		table.PutFloat("r"+strconv.Itoa(i), "v", float64(i))
	}
	first, _ := table.ScanColumns(ScanOptions{}, nil)
	if allocs := testing.AllocsPerRun(20, func() { table.ScanColumns(ScanOptions{}, nil) }); allocs > 1 {
		t.Errorf("steady-state ScanColumns allocates %v objects, want 1 (the values)", allocs)
	}

	table.Delete("r7", "v")
	if got, _ := table.ScanColumns(ScanOptions{}, nil); got.Len() != 49 {
		t.Fatalf("after delete: %d elements, want 49", got.Len())
	}
	table.PutFloat("r7", "v", 70)
	table.PutFloat("r7", "w", 71)
	got, _ := table.ScanColumns(ScanOptions{ColumnPrefix: "w"}, nil)
	want := metric.Columns{Keys: []string{"r7/w"}, Vals: []float64{71}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("after reinsert: ScanColumns = %v, want %v", got, want)
	}
	got, _ = table.ScanColumns(ScanOptions{}, nil)
	if i := slices.Index(got.Keys, "r7/v"); got.Len() != 51 || i < 0 || got.Vals[i] != 70 {
		t.Errorf("after reinsert: %d elements, r7/v at %d; want 51 and r7/v = 70", got.Len(), i)
	}
	if first.Len() != 50 || first.Keys[0] != "r0/v" || first.Vals[0] != 0 {
		t.Errorf("an earlier state changed under later writes: %v %v", first.Keys[:1], first.Vals[:1])
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
		table.GetVersions("r", "c", 0)
		table.Scan(ScanOptions{})
		table.ScanColumns(ScanOptions{}, nil)
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
				row, col := fmt.Sprintf("r%d", g), fmt.Sprintf("c%d", g)
				if err := table.PutFloat(row, col, float64(i)); err != nil {
					t.Error(err)
					return
				}
				table.Get(row, col)
				table.Scan(ScanOptions{ColumnPrefix: col})
			}
		}(g)
	}
	wg.Wait()
	if n := len(table.Scan(ScanOptions{})); n != 8 {
		t.Errorf("%d cells, want 8 (one per row)", n)
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
