package kvstore

import "testing"

// TestDumpGolden pins the dump format — the text every bit-identity check in
// the repository compares — on the cases a formatter gets wrong: tables in
// name order whatever the creation order; rows ordered as rows ("a" before
// "a-b", although "a-b/x" < "a/x" as joined strings); two cells whose
// row/column concatenations collide kept apart; every retained version,
// newest first, and none that MaxVersions trimmed; deleted cells absent, and
// a cell rewritten after its delete holding only the new version.
func TestDumpGolden(t *testing.T) {
	s := New()
	z, err := s.CreateTable("z", TableOptions{MaxVersions: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.CreateTable("a", TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	put := func(tbl *Table, row, col, val string) {
		t.Helper()
		if err := tbl.Put(row, col, []byte(val)); err != nil {
			t.Fatal(err)
		}
	}
	put(z, "a-b", "x", "1")                       // @1
	put(z, "a", "x", "2")                         // @2, trimmed below
	put(z, "a/b", "c", "3")                       // @3
	put(z, "a", "b/c", "4")                       // @4
	put(z, "a", "x", "5")                         // @5
	put(z, "a", "x", "6")                         // @6
	put(z, "gone", "x", "7")                      // @7
	if err := z.Delete("gone", "x"); err != nil { // @8
		t.Fatal(err)
	}
	if err := z.Delete("never", "was"); err != nil { // @9: a missing cell still burns a tick
		t.Fatal(err)
	}
	put(z, "back", "x", "8")                      // @10
	if err := z.Delete("back", "x"); err != nil { // @11
		t.Fatal(err)
	}
	put(z, "back", "x", "9")        // @12
	put(a, "r", "quote\"d", "\x00") // @13

	const want = `a "r" "quote\"d" @13 = 00
z "a" "b/c" @4 = 34
z "a" "x" @6 = 36
z "a" "x" @5 = 35
z "a-b" "x" @1 = 31
z "a/b" "c" @3 = 33
z "back" "x" @12 = 39
`
	if got := string(s.Dump()); got != want {
		t.Fatalf("dump:\n%swant:\n%s", got, want)
	}
}
