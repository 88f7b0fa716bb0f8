package durable

import (
	"testing"

	"smartflux/internal/kvstore"
)

// mutationFeed subscribes to every table of a store (present and future) and
// collects the encoded replication records of all observed mutations.
func mutationFeed(s *kvstore.Store) *[][]byte {
	recs := &[][]byte{}
	s.OnTableCreate(func(t *kvstore.Table) {
		t.Subscribe(kvstore.ObserverFunc(func(m kvstore.Mutation) {
			*recs = append(*recs, EncodeMutationRecord(m))
		}))
	})
	return recs
}

func TestShipRecordRoundTrip(t *testing.T) {
	src := kvstore.New()
	recs := mutationFeed(src)
	tbl, err := src.CreateTable("t", kvstore.TableOptions{MaxVersions: 2})
	if err != nil {
		t.Fatal(err)
	}
	creates := [][]byte{EncodeCreateRecord("t", 2)}
	if err := tbl.Put("r1", "c1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Put("r1", "c1", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Put("r2", "c1", []byte("v3")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete("r2", "c1"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Put("r3", "c9", nil); err != nil {
		t.Fatal(err)
	}

	dst := kvstore.New()
	for _, rec := range append(creates, *recs...) {
		if err := ApplyRecord(dst, rec); err != nil {
			t.Fatal(err)
		}
	}
	want, got := string(src.Dump()), string(dst.Dump())
	if want != got {
		t.Fatalf("replicated dump differs:\nwant:\n%sgot:\n%s", want, got)
	}
	if src.Clock() != dst.Clock() {
		t.Fatalf("clock: src %d dst %d", src.Clock(), dst.Clock())
	}
	mv, err := dst.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if mv.MaxVersions() != 2 {
		t.Fatalf("maxVersions = %d, want 2 (create record must carry it)", mv.MaxVersions())
	}
}

// Applying records twice, or out of timestamp order, must converge to the
// same state — the property that makes shipper retries and parallel-wave
// notify interleavings safe.
func TestApplyRecordIdempotentAndOrderTolerant(t *testing.T) {
	src := kvstore.New()
	recs := mutationFeed(src)
	tbl, err := src.CreateTable("t", kvstore.TableOptions{MaxVersions: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := tbl.Put("r", "c", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	want := string(src.Dump())

	apply := func(order []int, twice bool) string {
		dst := kvstore.New()
		if err := ApplyRecord(dst, EncodeCreateRecord("t", 3)); err != nil {
			t.Fatal(err)
		}
		for _, i := range order {
			if err := ApplyRecord(dst, (*recs)[i]); err != nil {
				t.Fatal(err)
			}
			if twice {
				if err := ApplyRecord(dst, (*recs)[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if dst.Clock() != src.Clock() {
			t.Fatalf("clock: src %d dst %d", src.Clock(), dst.Clock())
		}
		return string(dst.Dump())
	}

	for _, tc := range []struct {
		name  string
		order []int
		twice bool
	}{
		{"in-order", []int{0, 1, 2, 3, 4, 5}, false},
		{"in-order-twice", []int{0, 1, 2, 3, 4, 5}, true},
		{"reversed", []int{5, 4, 3, 2, 1, 0}, false},
		{"shuffled", []int{2, 5, 0, 3, 1, 4}, true},
	} {
		if got := apply(tc.order, tc.twice); got != want {
			t.Errorf("%s: dump differs:\nwant:\n%sgot:\n%s", tc.name, want, got)
		}
	}
}

func TestApplyRecordRejectsCommit(t *testing.T) {
	s := kvstore.New()
	if err := ApplyRecord(s, encodeCommit(1, []uint64{3}, nil)); err == nil {
		t.Fatal("commit record applied as replication; want error")
	}
	if err := ApplyRecord(s, []byte{}); err == nil {
		t.Fatal("empty record applied; want error")
	}
}

func TestReplLog(t *testing.T) {
	l := NewReplLog()
	if l.Len() != 0 {
		t.Fatalf("fresh log Len = %d", l.Len())
	}
	if crc, ok := l.Checksum(0); !ok || crc != 0 {
		t.Fatalf("Checksum(0) = %d, %v; want 0, true", crc, ok)
	}
	if _, ok := l.Checksum(1); ok {
		t.Fatal("Checksum past head must report false")
	}

	records := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc"), []byte("dddd")}
	for i, rec := range records {
		if got := l.Append(rec); got != uint64(i+1) {
			t.Fatalf("Append #%d returned cursor %d", i, got)
		}
	}
	if l.Len() != 4 {
		t.Fatalf("Len = %d, want 4", l.Len())
	}

	// Two logs sharing a prefix agree on its checksum; a log that diverged
	// does not.
	l2 := NewReplLog()
	for _, rec := range records[:2] {
		l2.Append(rec)
	}
	cur, crc := l2.Status()
	if cur != 2 {
		t.Fatalf("Status cursor = %d, want 2", cur)
	}
	if c, ok := l.Checksum(cur); !ok || c != crc {
		t.Fatalf("prefix checksum mismatch: primary %d follower %d", c, crc)
	}
	l3 := NewReplLog()
	l3.Append(records[0])
	l3.Append([]byte("divergent"))
	cur3, crc3 := l3.Status()
	if c, _ := l.Checksum(cur3); c == crc3 {
		t.Fatal("divergent prefix produced matching checksum")
	}

	since := l.Since(2)
	if len(since) != 2 || string(since[0]) != "ccc" || string(since[1]) != "dddd" {
		t.Fatalf("Since(2) = %q", since)
	}
	if got := l.Since(4); got != nil {
		t.Fatalf("Since(head) = %q, want nil", got)
	}
	if got := l.Since(99); got != nil {
		t.Fatalf("Since(past head) = %q, want nil", got)
	}

	l.Reset()
	if l.Len() != 0 {
		t.Fatalf("Len after Reset = %d", l.Len())
	}
	if crc, ok := l.Checksum(0); !ok || crc != 0 {
		t.Fatalf("Checksum(0) after Reset = %d, %v", crc, ok)
	}
}

func TestAdvanceClock(t *testing.T) {
	s := kvstore.New()
	s.AdvanceClock(7)
	if s.Clock() != 7 {
		t.Fatalf("Clock = %d, want 7", s.Clock())
	}
	s.AdvanceClock(3) // behind: no-op
	if s.Clock() != 7 {
		t.Fatalf("Clock after lower advance = %d, want 7", s.Clock())
	}
	s.AdvanceClock(7) // equal: no-op
	if s.Clock() != 7 {
		t.Fatalf("Clock after equal advance = %d, want 7", s.Clock())
	}
}
