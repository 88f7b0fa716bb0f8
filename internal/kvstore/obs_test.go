package kvstore

import (
	"testing"

	"smartflux/internal/obs"
)

func TestStoreInstrumented(t *testing.T) {
	store := New()
	reg := obs.NewRegistry()
	store.Instrument(obs.New(reg))

	table, err := store.CreateTable("t", TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := table.PutFloat("r", "c", float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	table.Get("r", "c")
	table.Get("r", "missing")
	if err := table.Delete("r", "c"); err != nil {
		t.Fatal(err)
	}
	if err := table.Apply(NewBatch().Put("a", "x", EncodeFloat(1)).Put("b", "x", EncodeFloat(2)).Delete("a", "x")); err != nil {
		t.Fatal(err)
	}
	if err := table.PutFloat("q", "c", 9); err != nil {
		t.Fatal(err)
	}
	cells := table.Scan(ScanOptions{})
	state, _ := table.ScanColumns(ScanOptions{}, nil)
	// A projected read is one scan of the float cells it finds: "c" of
	// row q, "x" of row b; row b has no "c".
	table.ScanFloatRows([]string{"c", "x"}, func([]string, []float64, []bool) {})
	const projected = 2

	snap := reg.Snapshot()
	// 4 puts + 2 batch puts + 1 final put = 7 mutations.
	if got := snap.Counters[`smartflux_kvstore_ops_total{op="mutate"}`]; got != 7 {
		t.Errorf("mutations = %d, want 7", got)
	}
	// 1 direct delete + 1 batch delete.
	if got := snap.Counters[`smartflux_kvstore_ops_total{op="delete"}`]; got != 2 {
		t.Errorf("deletes = %d, want 2", got)
	}
	if got := snap.Counters[`smartflux_kvstore_ops_total{op="get"}`]; got != 2 {
		t.Errorf("gets = %d, want 2", got)
	}
	// Snapshot scans (ScanColumns) and projected reads count as scans too.
	if got := snap.Counters[`smartflux_kvstore_ops_total{op="scan"}`]; got != 3 {
		t.Errorf("scans = %d, want 3", got)
	}
	if got, want := snap.Counters["smartflux_kvstore_scan_cells_total"], uint64(len(cells)+state.Len()+projected); got != want {
		t.Errorf("scan cells = %d, want %d", got, want)
	}
}

func TestStoreInstrumentNilDetach(t *testing.T) {
	store := New()
	reg := obs.NewRegistry()
	store.Instrument(obs.New(reg))
	table, err := store.CreateTable("t", TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := table.PutFloat("r", "c", 1); err != nil {
		t.Fatal(err)
	}
	store.Instrument(nil)
	if err := table.PutFloat("r", "c", 2); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[`smartflux_kvstore_ops_total{op="mutate"}`]; got != 1 {
		t.Errorf("mutations after detach = %d, want 1", got)
	}
}
