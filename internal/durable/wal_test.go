package durable

import (
	"os"
	"reflect"
	"testing"

	"smartflux/internal/kvstore"
)

// FuzzReadWAL feeds arbitrary bytes to the one reader of the one on-disk
// format: it must not panic, must report a valid prefix no longer than the
// input, and re-reading that prefix must yield the same records with no tear.
func FuzzReadWAL(f *testing.F) {
	// Seed with a real epoch file — head, tail with a delete, commits — whole
	// and cut mid-record.
	dir := f.TempDir()
	mgr, err := Open(Options{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		f.Fatal(err)
	}
	s := kvstore.New()
	tab, err := s.CreateTable("data", kvstore.TableOptions{MaxVersions: 2})
	if err != nil {
		f.Fatal(err)
	}
	if err := mgr.Register("main", s); err != nil {
		f.Fatal(err)
	}
	for i, step := range []func() error{
		func() error { return tab.Put("r", "c", []byte("before")) },
		func() error { return mgr.Begin(0, []byte("cp0")) },
		func() error { return tab.Put("r", "c", []byte("after")) },
		func() error { return tab.Delete("r", "c") },
		func() error { return mgr.Commit(1, []byte("cp1")) },
		mgr.Close,
	} {
		if err := step(); err != nil {
			f.Fatalf("seed step %d: %v", i, err)
		}
	}
	seed, err := os.ReadFile(walPath(dir, 1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-5])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		records, info := readWAL(data)
		if info.validBytes < 0 || info.validBytes > int64(len(data)) || info.totalBytes != int64(len(data)) {
			t.Fatalf("validBytes %d, totalBytes %d for %d input bytes", info.validBytes, info.totalBytes, len(data))
		}
		if info.torn == (info.validBytes == info.totalBytes) {
			t.Fatalf("torn = %v with %d of %d bytes valid", info.torn, info.validBytes, info.totalBytes)
		}
		again, info2 := readWAL(data[:info.validBytes])
		if info2.torn || info2.validBytes != info.validBytes || !reflect.DeepEqual(records, again) {
			t.Fatalf("re-reading the %d-byte valid prefix: torn=%v valid=%d, %d records vs %d", info.validBytes, info2.torn, info2.validBytes, len(again), len(records))
		}
	})
}
