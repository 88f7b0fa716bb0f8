package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// dumpTable is the dump of the store t belongs to (every test here keeps one
// table per store).
func dumpTable(t *Table) string { return string(t.store.Dump()) }

func TestReplayReproducesLiveSequence(t *testing.T) {
	for _, tc := range []struct {
		name string
		// order permutes the log before replay: indices 0-4 are r1/c1's
		// puts at timestamps 1-5 (its window holds 2), 5-7 the rest.
		order []int
	}{
		{"in order", []int{0, 1, 2, 3, 4, 5, 6, 7}},
		// ts 2, 5, then 4 lands inside the full window (2 drops out), and
		// 1 and 3 are older than everything it retains.
		{"out of order into a full window", []int{1, 4, 3, 0, 2, 5, 6, 7}},
	} {
		t.Run(tc.name, func(t *testing.T) { testReplayReproducesLiveSequence(t, tc.order) })
	}
}

// TestReplayOfTrimmedVersionKeepsVersion replays a version older than every
// version a full window retains: the window drops it, so the table's content,
// and with it Version, must stay as they were.
func TestReplayOfTrimmedVersionKeepsVersion(t *testing.T) {
	table := newTestTable(t, TableOptions{MaxVersions: 2})
	for i := 0; i < 3; i++ {
		if err := table.PutFloat("r", "c", float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	version, dump := table.Version(), dumpTable(table)
	if err := table.ReplayPut("r", "c", EncodeFloat(9), 1); err != nil {
		t.Fatal(err)
	}
	if got := dumpTable(table); got != dump {
		t.Fatalf("a trimmed replay changed the table:\n%s\nwant\n%s", got, dump)
	}
	if got := table.Version(); got != version {
		t.Errorf("Version = %d after a replay nothing keeps, want %d", got, version)
	}
}

func testReplayReproducesLiveSequence(t *testing.T, order []int) {
	live := New()
	lt, err := live.CreateTable("t", TableOptions{MaxVersions: 2})
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		row, col string
		val      []byte
		ts       uint64
		del      bool
	}
	var log []rec
	lt.Subscribe(ObserverFunc(func(m Mutation) {
		log = append(log, rec{m.Row, m.Column, m.New, m.Timestamp, m.Kind == MutationDelete})
	}))
	for i := 0; i < 5; i++ {
		if err := lt.Put("r1", "c1", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lt.Put("r2", "c1", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := lt.Delete("r2", "c1"); err != nil {
		t.Fatal(err)
	}
	if err := lt.Put("r2", "c2", []byte("y")); err != nil {
		t.Fatal(err)
	}

	replayed := New()
	rt, err := replayed.CreateTable("t", TableOptions{MaxVersions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(log) {
		t.Fatalf("order permutes %d records, the log holds %d", len(order), len(log))
	}
	apply := func() {
		for _, i := range order {
			r := log[i]
			if r.del {
				if err := rt.ReplayDelete(r.row, r.col); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if err := rt.ReplayPut(r.row, r.col, r.val, r.ts); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply()
	replayed.SetClock(live.Clock())

	if got, want := dumpTable(rt), dumpTable(lt); got != want {
		t.Fatalf("replayed state differs:\ngot:\n%swant:\n%s", got, want)
	}
	if got, want := replayed.Clock(), live.Clock(); got != want {
		t.Fatalf("clock = %d, want %d", got, want)
	}

	// Replaying the whole log a second time must be a no-op.
	before := dumpTable(rt)
	apply()
	if got := dumpTable(rt); got != before {
		t.Fatalf("duplicate replay changed state:\ngot:\n%swas:\n%s", got, before)
	}

	// The restored clock must continue the original timestamp sequence.
	if err := rt.Put("r3", "c1", []byte("z")); err != nil {
		t.Fatal(err)
	}
	if err := lt.Put("r3", "c1", []byte("z")); err != nil {
		t.Fatal(err)
	}
	if got, want := dumpTable(rt), dumpTable(lt); got != want {
		t.Fatalf("post-replay writes diverge:\ngot:\n%swant:\n%s", got, want)
	}

	// History re-expresses the table as the puts that rebuild it: one call
	// per cell in scan order, the cell's retained versions oldest first.
	ht, err := New().CreateTable("t", TableOptions{MaxVersions: 2})
	if err != nil {
		t.Fatal(err)
	}
	var cells []string
	err = lt.History(func(cell []Mutation) error {
		var desc string
		for _, m := range cell {
			if m.Kind != MutationPut || m.Table != "t" {
				t.Fatalf("History yielded %+v, want a put to t", m)
			}
			desc += fmt.Sprintf("%s/%s@%d ", m.Row, m.Column, m.Timestamp)
			if err := ht.ReplayPut(m.Row, m.Column, m.New, m.Timestamp); err != nil {
				return err
			}
		}
		cells = append(cells, desc)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"r1/c1@4 r1/c1@5 ", "r2/c2@8 ", "r3/c1@9 "}; !reflect.DeepEqual(cells, want) {
		t.Fatalf("History order = %q, want %q", cells, want)
	}
	if got, want := dumpTable(ht), dumpTable(lt); got != want {
		t.Fatalf("table rebuilt from History differs:\ngot:\n%swant:\n%s", got, want)
	}
	boom := errors.New("stop")
	if err := lt.History(func([]Mutation) error { return boom }); err != boom {
		t.Fatalf("History = %v, want the callback's error", err)
	}
}

func TestReplayPutOutOfOrder(t *testing.T) {
	s := New()
	tab, err := s.CreateTable("t", TableOptions{MaxVersions: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range []uint64{5, 2, 9, 7} {
		if err := tab.ReplayPut("r", "c", []byte{byte(ts)}, ts); err != nil {
			t.Fatal(err)
		}
	}
	vs := tab.GetVersions("r", "c", 0) // newest first
	var got []uint64
	for _, v := range vs {
		got = append(got, v.Timestamp)
	}
	want := []uint64{9, 7, 5} // ts=2 trimmed as oldest beyond MaxVersions
	if len(got) != len(want) {
		t.Fatalf("versions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("versions = %v, want %v", got, want)
		}
	}
	cur, ok := tab.Get("r", "c")
	if !ok || !bytes.Equal(cur, []byte{9}) {
		t.Fatalf("latest = %x ok=%v, want 09", cur, ok)
	}
}

func TestReplayEmptyKeyAndMissingDelete(t *testing.T) {
	s := New()
	tab, err := s.CreateTable("t", TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.ReplayPut("", "c", nil, 1); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("ReplayPut empty row: err = %v, want ErrEmptyKey", err)
	}
	if err := tab.ReplayDelete("r", ""); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("ReplayDelete empty col: err = %v, want ErrEmptyKey", err)
	}
	if err := tab.ReplayDelete("no", "cell"); err != nil {
		t.Fatalf("ReplayDelete missing cell: err = %v, want nil", err)
	}
}

func TestMaxVersionsAccessor(t *testing.T) {
	s := New()
	def, err := s.CreateTable("def", TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := def.MaxVersions(); got != DefaultMaxVersions {
		t.Fatalf("MaxVersions = %d, want %d", got, DefaultMaxVersions)
	}
	five, err := s.CreateTable("five", TableOptions{MaxVersions: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := five.MaxVersions(); got != 5 {
		t.Fatalf("MaxVersions = %d, want 5", got)
	}
}

func TestOnTableCreateHook(t *testing.T) {
	s := New()
	if _, err := s.CreateTable("before", TableOptions{}); err != nil {
		t.Fatal(err)
	}
	var created []string
	s.OnTableCreate(func(tab *Table) { created = append(created, tab.Name()) })
	s.OnTableCreate(nil) // must be ignored
	if _, err := s.CreateTable("a", TableOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.EnsureTable("b", TableOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.EnsureTable("b", TableOptions{}); err != nil {
		t.Fatal(err) // existing: no second fire
	}
	if len(created) != 2 || created[0] != "a" || created[1] != "b" {
		t.Fatalf("created = %v, want [a b]", created)
	}

	// The hook must be able to subscribe before any mutation is visible.
	var muts []Mutation
	s.OnTableCreate(func(tab *Table) {
		tab.Subscribe(ObserverFunc(func(m Mutation) { muts = append(muts, m) }))
	})
	tab, err := s.CreateTable("c", TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Put("r", "c", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if len(muts) != 1 || muts[0].Table != "c" {
		t.Fatalf("hook-subscribed observer saw %v, want one mutation on table c", muts)
	}
}
