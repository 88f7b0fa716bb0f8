package durable_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"smartflux/internal/durable"
	"smartflux/internal/fault"
	"smartflux/internal/kvstore"
	"smartflux/internal/obs"
)

// dumpStore is the store's version dump plus what the dump leaves out and
// recovery must also restore — each table's version bound and the store
// clock: the bit-identity witness used across the durability tests.
func dumpStore(t *testing.T, s *kvstore.Store) string {
	t.Helper()
	var b strings.Builder
	for _, tn := range s.TableNames() {
		tab, err := s.Table(tn)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "table %s max=%d\n", tn, tab.MaxVersions())
	}
	b.Write(s.Dump())
	fmt.Fprintf(&b, "clock %d\n", s.Clock())
	return b.String()
}

// runWaves drives a store through n committed waves of writes (and a
// periodic delete), starting at wave start+1.
func runWaves(t *testing.T, mgr *durable.Manager, s *kvstore.Store, start, n int) {
	t.Helper()
	tab, err := s.EnsureTable("data", kvstore.TableOptions{MaxVersions: 3})
	if err != nil {
		t.Fatal(err)
	}
	for w := start + 1; w <= start+n; w++ {
		for i := 0; i < 4; i++ {
			row := fmt.Sprintf("r%d", i)
			if err := tab.Put(row, "v", []byte(fmt.Sprintf("wave%d-%d", w, i))); err != nil {
				t.Fatal(err)
			}
		}
		if w%3 == 0 {
			if err := tab.Delete("r0", "v"); err != nil {
				t.Fatal(err)
			}
		}
		if err := mgr.Commit(w, []byte(fmt.Sprintf("cp-wave-%d", w))); err != nil {
			t.Fatalf("commit wave %d: %v", w, err)
		}
	}
}

// recoverInto recovers dir into a fresh store and returns it with the
// recovery handle.
func recoverInto(t *testing.T, dir string) (*kvstore.Store, *durable.Recovery) {
	t.Helper()
	rec, err := durable.Recover(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil {
		t.Fatal("Recover returned nil for a populated directory")
	}
	s := kvstore.New()
	if err := rec.Apply("main", s); err != nil {
		t.Fatal(err)
	}
	return s, rec
}

func openManager(t *testing.T, dir string, opts durable.Options) (*durable.Manager, *kvstore.Store) {
	t.Helper()
	opts.Dir = dir
	mgr, err := durable.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	s := kvstore.New()
	if err := mgr.Register("main", s); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Begin(0, []byte("cp-initial")); err != nil {
		t.Fatal(err)
	}
	return mgr, s
}

// TestRecoverFreshDir: no state at all means a fresh start, not an error.
func TestRecoverFreshDir(t *testing.T) {
	rec, err := durable.Recover(filepath.Join(t.TempDir(), "missing"), nil)
	if err != nil || rec != nil {
		t.Fatalf("Recover(missing) = %v, %v; want nil, nil", rec, err)
	}
	empty := t.TempDir()
	rec, err = durable.Recover(empty, nil)
	if err != nil || rec != nil {
		t.Fatalf("Recover(empty) = %v, %v; want nil, nil", rec, err)
	}
}

// TestDurableRoundTrip commits waves, recovers into a fresh store and
// demands a bit-identical dump, clock and checkpoint payload.
func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	mgr, s := openManager(t, dir, durable.Options{})
	runWaves(t, mgr, s, 0, 7)
	want := dumpStore(t, s)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	got, rec := recoverInto(t, dir)
	if d := dumpStore(t, got); d != want {
		t.Fatalf("recovered dump differs:\n--- got ---\n%s--- want ---\n%s", d, want)
	}
	if rec.Wave != 7 {
		t.Fatalf("recovered Wave = %d, want 7", rec.Wave)
	}
	if string(rec.Payload) != "cp-wave-7" {
		t.Fatalf("recovered Payload = %q, want cp-wave-7", rec.Payload)
	}
	if rec.Stats.Torn || rec.Stats.Discarded != 0 {
		t.Fatalf("clean log recovered with Torn=%v Discarded=%d", rec.Stats.Torn, rec.Stats.Discarded)
	}
}

// TestUncommittedTailDiscarded: mutations after the last commit are rolled
// back to the wave boundary.
func TestUncommittedTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	mgr, s := openManager(t, dir, durable.Options{})
	runWaves(t, mgr, s, 0, 4)
	want := dumpStore(t, s)

	// A wave's worth of writes that never commits.
	tab, err := s.Table("data")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Put("r9", "v", []byte("uncommitted")); err != nil {
		t.Fatal(err)
	}
	if err := tab.Put("r9", "w", []byte("uncommitted2")); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	got, rec := recoverInto(t, dir)
	if d := dumpStore(t, got); d != want {
		t.Fatalf("recovered dump should exclude uncommitted writes:\n--- got ---\n%s--- want ---\n%s", d, want)
	}
	if rec.Stats.Discarded != 2 {
		t.Fatalf("Discarded = %d, want 2", rec.Stats.Discarded)
	}
	if rec.Wave != 4 {
		t.Fatalf("Wave = %d, want 4", rec.Wave)
	}
}

// TestCorruptCRCMidLog flips a byte mid-log: recovery must stop at the last
// record before the corruption and truncate the rest.
func TestCorruptCRCMidLog(t *testing.T) {
	dir := t.TempDir()
	mgr, s := openManager(t, dir, durable.Options{})
	runWaves(t, mgr, s, 0, 6)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	wal := findOne(t, dir, ".log")
	raw, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(wal, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	got, rec := recoverInto(t, dir)
	if !rec.Stats.Torn || rec.Stats.TruncatedBytes == 0 {
		t.Fatalf("corrupt log: Torn=%v TruncatedBytes=%d, want torn with bytes removed", rec.Stats.Torn, rec.Stats.TruncatedBytes)
	}
	if rec.Wave <= 0 || rec.Wave >= 6 {
		t.Fatalf("corrupt log recovered Wave = %d, want a mid-run committed wave", rec.Wave)
	}
	// The truncated file must now re-read cleanly to exactly the replayed state.
	st, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != int64(len(raw))-rec.Stats.TruncatedBytes {
		t.Fatalf("wal size after truncation = %d, want %d", st.Size(), int64(len(raw))-rec.Stats.TruncatedBytes)
	}
	again, rec2 := recoverInto(t, dir)
	if rec2.Stats.Torn {
		t.Fatal("second recovery still sees a torn log after truncation")
	}
	if rec2.Wave != rec.Wave {
		t.Fatalf("second recovery Wave = %d, want %d", rec2.Wave, rec.Wave)
	}
	if dumpStore(t, again) != dumpStore(t, got) {
		t.Fatal("second recovery diverges from first")
	}
}

// TestTornFinalRecordTruncated: garbage appended past the last record (a
// torn final write) is removed and everything before it replays.
func TestTornFinalRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	mgr, s := openManager(t, dir, durable.Options{})
	runWaves(t, mgr, s, 0, 5)
	want := dumpStore(t, s)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	wal := findOne(t, dir, ".log")
	f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x55, 0x03, 0x00}); err != nil { // half a header
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	got, rec := recoverInto(t, dir)
	if !rec.Stats.Torn || rec.Stats.TruncatedBytes != 3 {
		t.Fatalf("Torn=%v TruncatedBytes=%d, want torn with 3 bytes", rec.Stats.Torn, rec.Stats.TruncatedBytes)
	}
	if d := dumpStore(t, got); d != want {
		t.Fatalf("torn-tail recovery diverges:\n--- got ---\n%s--- want ---\n%s", d, want)
	}
	if rec.Wave != 5 {
		t.Fatalf("Wave = %d, want 5", rec.Wave)
	}
}

// TestDoubleApplyIdempotent: applying a recovery twice — or over a store
// that already holds some of the same timestamped writes — converges.
func TestDoubleApplyIdempotent(t *testing.T) {
	dir := t.TempDir()
	mgr, s := openManager(t, dir, durable.Options{})
	runWaves(t, mgr, s, 0, 5)
	want := dumpStore(t, s)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := durable.Recover(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	target := kvstore.New()
	if err := rec.Apply("main", target); err != nil {
		t.Fatal(err)
	}
	if err := rec.Apply("main", target); err != nil {
		t.Fatalf("second Apply: %v", err)
	}
	if d := dumpStore(t, target); d != want {
		t.Fatalf("double apply diverges:\n--- got ---\n%s--- want ---\n%s", d, want)
	}
	if err := rec.Apply("nosuch", target); err == nil {
		t.Fatal("Apply(unknown store): want error")
	}
}

// TestCompactionRotatesAndRecovers: small SnapshotEvery must leave exactly
// one epoch file on disk and still recover bit-identically — version
// histories of the MaxVersions-3 table, the cell deleted every third wave and
// the clock included. Ten waves leave a tail after the last rotation; nine
// end on it, so everything recovered comes out of the compacted head.
func TestCompactionRotatesAndRecovers(t *testing.T) {
	for _, waves := range []int{10, 9} {
		dir := t.TempDir()
		mgr, s := openManager(t, dir, durable.Options{SnapshotEvery: 3})
		runWaves(t, mgr, s, 0, waves)
		want := dumpStore(t, s)
		stats := mgr.Stats()
		if err := mgr.Close(); err != nil {
			t.Fatal(err)
		}

		if stats.Snapshots != 4 { // Begin + rotations at waves 3, 6, 9
			t.Fatalf("%d waves: Snapshots = %d, want 4", waves, stats.Snapshots)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "wal-00000004.log" {
			t.Fatalf("%d waves: after compaction the directory holds %v, want only wal-00000004.log", waves, entries)
		}

		got, rec := recoverInto(t, dir)
		if d := dumpStore(t, got); d != want {
			t.Fatalf("%d waves: post-compaction recovery diverges:\n--- got ---\n%s--- want ---\n%s", waves, d, want)
		}
		if rec.Wave != waves || rec.Stats.SnapshotWave != 9 {
			t.Fatalf("Wave = %d, SnapshotWave = %d; want %d and 9", rec.Wave, rec.Stats.SnapshotWave, waves)
		}
		if waves == 9 && (rec.Stats.Replayed != 0 || string(rec.Payload) != "cp-wave-9") {
			t.Fatalf("head-only epoch: Replayed = %d, Payload = %q; want 0 and cp-wave-9", rec.Stats.Replayed, rec.Payload)
		}
	}
}

// TestCorruptEpochHeadFallsBack: when the newest epoch's head is damaged,
// recovery falls back to an older epoch if one is still on disk and fails
// otherwise; either way the next run numbers its epoch past every file.
func TestCorruptEpochHeadFallsBack(t *testing.T) {
	dir := t.TempDir()
	mgr, s := openManager(t, dir, durable.Options{SnapshotEvery: -1})
	runWaves(t, mgr, s, 0, 4)
	want := dumpStore(t, s)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	epoch1, err := os.ReadFile(filepath.Join(dir, "wal-00000001.log"))
	if err != nil {
		t.Fatal(err)
	}

	// A second run compacts the recovered store into epoch 2 and removes
	// epoch 1; put epoch 1 back (a crash between publish and removal leaves
	// both) and flip one byte inside epoch 2's head. A stray temp file must
	// be ignored outright.
	restored, rec := recoverInto(t, dir)
	mgr2, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr2.Register("main", restored); err != nil {
		t.Fatal(err)
	}
	if err := mgr2.Begin(rec.Wave, rec.Payload); err != nil {
		t.Fatal(err)
	}
	if err := mgr2.Close(); err != nil {
		t.Fatal(err)
	}
	epoch2 := filepath.Join(dir, "wal-00000002.log")
	raw, err := os.ReadFile(epoch2)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	for name, content := range map[string][]byte{
		"wal-00000001.log":     epoch1,
		"wal-00000002.log":     raw,
		"wal-00000003.log.tmp": []byte("partial"),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	got, rec := recoverInto(t, dir)
	if d := dumpStore(t, got); d != want {
		t.Fatalf("fallback recovery diverges:\n--- got ---\n%s--- want ---\n%s", d, want)
	}
	if rec.Stats.Epoch != 1 {
		t.Fatalf("fallback Epoch = %d, want 1", rec.Stats.Epoch)
	}
	if st, err := os.Stat(epoch2); err != nil || st.Size() != int64(len(raw)) {
		t.Fatalf("the invalid epoch must be left as found: %v, %v", st, err)
	}

	if err := os.Remove(filepath.Join(dir, "wal-00000001.log")); err != nil {
		t.Fatal(err)
	}
	if rec, err := durable.Recover(dir, nil); err == nil || !strings.Contains(err.Error(), "no valid epoch") {
		t.Fatalf("Recover with only a corrupt epoch = %v, %v; want a no-valid-epoch error", rec, err)
	}

	mgr3, _ := openManager(t, dir, durable.Options{})
	defer mgr3.Close()
	if e := mgr3.Stats().Epoch; e != 3 {
		t.Fatalf("epoch after an invalid epoch 2 = %d, want 3 (numbers are never reused)", e)
	}
}

// TestUnreadableStateIsAnError: durable state this binary cannot read is an
// error naming the file — never (nil, nil), which callers take for a fresh
// start — while a half-written epoch beside a valid one is just ignored.
func TestUnreadableStateIsAnError(t *testing.T) {
	// A log in the pre-single-file format starts with an ordinary record.
	rec := durable.EncodeCreateRecord("data", 3)
	headerless := binary.LittleEndian.AppendUint32(nil, uint32(len(rec)))
	headerless = binary.LittleEndian.AppendUint32(headerless, crc32.ChecksumIEEE(rec))
	headerless = append(headerless, rec...)

	for _, tc := range []struct {
		name  string
		files map[string][]byte
		named string
	}{
		{"snapshot file beside a headerless log", map[string][]byte{"snapshot-00000001.snap": []byte("gob"), "wal-00000001.log": nil}, "snapshot-00000001.snap"},
		{"headerless log alone", map[string][]byte{"wal-00000001.log": headerless}, "wal-00000001.log"},
		{"empty log alone", map[string][]byte{"wal-00000001.log": nil}, "wal-00000001.log"},
	} {
		dir := t.TempDir()
		for name, content := range tc.files {
			if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rec, err := durable.Recover(dir, nil)
		if rec != nil || err == nil || !strings.Contains(err.Error(), tc.named) {
			t.Errorf("%s: Recover = %v, %v; want an error naming %s", tc.name, rec, err, tc.named)
		}
	}

	dir := t.TempDir()
	mgr, s := openManager(t, dir, durable.Options{})
	runWaves(t, mgr, s, 0, 2)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, "wal-00000002.log.tmp")
	if err := os.WriteFile(stray, headerless, 0o644); err != nil {
		t.Fatal(err)
	}
	restored, got := recoverInto(t, dir)
	if got.Stats.Epoch != 1 || got.Wave != 2 {
		t.Fatalf("with a stray temp file: recovered epoch %d wave %d, want 1 and 2", got.Stats.Epoch, got.Wave)
	}
	mgr2, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	if err := mgr2.Register("main", restored); err != nil {
		t.Fatal(err)
	}
	if err := mgr2.Begin(got.Wave, got.Payload); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Begin left the stray temp file behind: %v", err)
	}
}

// TestSameInputSameBytes: two managers fed the same mutation sequence and the
// same payload bytes write byte-identical epoch files, across a rotation.
func TestSameInputSameBytes(t *testing.T) {
	for _, mode := range []durable.FsyncMode{durable.FsyncCommit, durable.FsyncNever} {
		var files [2]map[string][]byte
		for i := range files {
			dir := t.TempDir()
			mgr, s := openManager(t, dir, durable.Options{SnapshotEvery: 3, Fsync: mode})
			runWaves(t, mgr, s, 0, 5)
			if err := mgr.Close(); err != nil {
				t.Fatal(err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			files[i] = make(map[string][]byte)
			for _, e := range entries {
				if files[i][e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
					t.Fatal(err)
				}
			}
		}
		if len(files[0]) != 1 || len(files[0]["wal-00000002.log"]) == 0 {
			t.Fatalf("fsync %v: run left %d files, want one non-empty wal-00000002.log", mode, len(files[0]))
		}
		if !reflect.DeepEqual(files[0], files[1]) {
			t.Fatalf("fsync %v: two runs of the same input wrote different bytes", mode)
		}
	}
}

// TestResumeContinuesEpochs: a recovered run re-opens the directory, begins
// a fresh epoch numbered past every existing file, and later recovery sees
// the continued history.
func TestResumeContinuesEpochs(t *testing.T) {
	dir := t.TempDir()
	mgr, s := openManager(t, dir, durable.Options{})
	runWaves(t, mgr, s, 0, 4)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	// Second process: recover, continue for 3 more waves.
	restored, rec := recoverInto(t, dir)
	mgr2, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr2.Register("main", restored); err != nil {
		t.Fatal(err)
	}
	if err := mgr2.Begin(rec.Wave, rec.Payload); err != nil {
		t.Fatal(err)
	}
	runWaves(t, mgr2, restored, rec.Wave, 3)
	want := dumpStore(t, restored)
	if err := mgr2.Close(); err != nil {
		t.Fatal(err)
	}

	final, rec2 := recoverInto(t, dir)
	if d := dumpStore(t, final); d != want {
		t.Fatalf("continued recovery diverges:\n--- got ---\n%s--- want ---\n%s", d, want)
	}
	if rec2.Wave != 7 {
		t.Fatalf("Wave = %d, want 7", rec2.Wave)
	}
	if rec2.Stats.Epoch <= rec.Stats.Epoch {
		t.Fatalf("resumed epoch %d not past original %d", rec2.Stats.Epoch, rec.Stats.Epoch)
	}
}

// TestLifecycleErrors: misuse of the manager contract is rejected loudly.
func TestLifecycleErrors(t *testing.T) {
	dir := t.TempDir()
	mgr, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Begin(0, nil); err == nil {
		t.Fatal("Begin with no stores: want error")
	}
	s := kvstore.New()
	if err := mgr.Register("", s); err == nil {
		t.Fatal("Register(empty name): want error")
	}
	if err := mgr.Register("main", s); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Register("main", kvstore.New()); err == nil {
		t.Fatal("duplicate Register: want error")
	}
	if err := mgr.Commit(1, nil); err == nil {
		t.Fatal("Commit before Begin: want error")
	}
	if err := mgr.Begin(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Begin(0, nil); err == nil {
		t.Fatal("second Begin: want error")
	}
	if err := mgr.Register("late", kvstore.New()); err == nil {
		t.Fatal("Register after Begin: want error")
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatalf("second Close: %v, want idempotent nil", err)
	}
	if err := mgr.Commit(1, nil); err == nil {
		t.Fatal("Commit after Close: want error")
	}

	if _, err := durable.Open(durable.Options{}); err == nil {
		t.Fatal("Open without Dir: want error")
	}
}

// TestInjectedCrashGoesSticky: a fault-injected crash at the Nth WAL append
// leaves the manager permanently failed — the write that hit it still lands
// in the store (observers cannot refuse it), so the run learns of the dead
// log from Err and from the wave's Commit — and recovery lands on the last
// committed wave.
func TestInjectedCrashGoesSticky(t *testing.T) {
	dir := t.TempDir()
	inj := fault.New(fault.Policy{CrashPoints: map[string]int{"wal_append": 12}})
	mgr, err := durable.Open(durable.Options{Dir: dir, Hook: inj.OpHook()})
	if err != nil {
		t.Fatal(err)
	}
	raw := kvstore.New()
	if err := mgr.Register("main", raw); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Begin(0, []byte("cp-initial")); err != nil {
		t.Fatal(err)
	}

	tab, err := raw.EnsureTable("data", kvstore.TableOptions{MaxVersions: 3})
	if err != nil {
		t.Fatal(err)
	}
	var crashWave int
	var crashErr error
	for w := 1; w <= 10 && crashErr == nil; w++ {
		for i := 0; i < 3; i++ {
			if err := tab.Put(fmt.Sprintf("r%d", i), "v", []byte(fmt.Sprintf("w%d", w))); err != nil {
				t.Fatal(err)
			}
		}
		healthy := mgr.Err() == nil
		if crashErr = mgr.Commit(w, []byte(fmt.Sprintf("cp-wave-%d", w))); crashErr != nil {
			crashWave = w
		} else if !healthy {
			t.Fatalf("wave %d committed over a dead log", w)
		}
	}
	if crashErr == nil {
		t.Fatal("crash point never fired")
	}
	if !errors.Is(crashErr, fault.ErrCrashed) {
		t.Fatalf("crash error = %v, want fault.ErrCrashed", crashErr)
	}
	if !errors.Is(mgr.Err(), fault.ErrCrashed) {
		t.Fatalf("manager Err = %v, want the sticky crash", mgr.Err())
	}
	if err := mgr.Commit(99, nil); !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("Commit after crash = %v, want sticky crash", err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatalf("Close after crash = %v, want nil (crash already surfaced)", err)
	}

	_, rec := recoverInto(t, dir)
	if rec.Wave != crashWave-1 {
		t.Fatalf("recovered Wave = %d, want %d (last commit before crash at wave %d)", rec.Wave, crashWave-1, crashWave)
	}
}

// TestInjectedTornWriteRecovered: a crash with a torn byte count leaves a
// partial frame on disk; recovery truncates it and replays the prefix.
func TestInjectedTornWriteRecovered(t *testing.T) {
	dir := t.TempDir()
	inj := fault.New(fault.Policy{
		CrashPoints:    map[string]int{"wal_append": 9},
		CrashTornBytes: 5,
	})
	mgr, err := durable.Open(durable.Options{Dir: dir, Hook: inj.OpHook()})
	if err != nil {
		t.Fatal(err)
	}
	raw := kvstore.New()
	if err := mgr.Register("main", raw); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Begin(0, nil); err != nil {
		t.Fatal(err)
	}
	tab, err := raw.EnsureTable("data", kvstore.TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var crashed bool
	for w := 1; w <= 10 && !crashed; w++ {
		for i := 0; i < 3; i++ {
			if err := tab.Put(fmt.Sprintf("r%d", i), "v", []byte(fmt.Sprintf("w%d", w))); err != nil {
				t.Fatal(err) // raw store writes never fail; the log goes sticky silently
			}
		}
		crashed = mgr.Commit(w, []byte("cp")) != nil || mgr.Err() != nil
	}
	if !crashed {
		t.Fatal("crash point never fired")
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec := recoverInto(t, dir)
	if !rec.Stats.Torn || rec.Stats.TruncatedBytes != 5 {
		t.Fatalf("Torn=%v TruncatedBytes=%d, want torn with 5 bytes", rec.Stats.Torn, rec.Stats.TruncatedBytes)
	}
}

// TestInjectedSnapshotCrash: a crash at a snapshot rotation leaves the prior
// epoch fully usable.
func TestInjectedSnapshotCrash(t *testing.T) {
	dir := t.TempDir()
	// First snapshot (Begin) succeeds; the rotation at wave 3 crashes.
	inj := fault.New(fault.Policy{CrashPoints: map[string]int{"snapshot": 2}})
	mgr, err := durable.Open(durable.Options{Dir: dir, SnapshotEvery: 3, Hook: inj.OpHook()})
	if err != nil {
		t.Fatal(err)
	}
	s := kvstore.New()
	if err := mgr.Register("main", s); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Begin(0, []byte("cp-initial")); err != nil {
		t.Fatal(err)
	}
	tab, err := s.EnsureTable("data", kvstore.TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var crashErr error
	var lastOK int
	for w := 1; w <= 6 && crashErr == nil; w++ {
		if err := tab.Put("r", "v", []byte(fmt.Sprintf("w%d", w))); err != nil {
			t.Fatal(err)
		}
		crashErr = mgr.Commit(w, []byte(fmt.Sprintf("cp-wave-%d", w)))
		if crashErr == nil {
			lastOK = w
		}
	}
	if crashErr == nil {
		t.Fatal("snapshot crash never fired")
	}
	if !errors.Is(crashErr, fault.ErrCrashed) {
		t.Fatalf("crash error = %v, want fault.ErrCrashed", crashErr)
	}
	if lastOK != 2 { // wave 3's commit record landed, then the rotation died
		t.Fatalf("last successful commit = %d, want 2", lastOK)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec := recoverInto(t, dir)
	// Wave 3's commit was appended before the rotation crashed, so recovery
	// resumes from it; the failed snapshot left no epoch behind.
	if rec.Wave != 3 {
		t.Fatalf("recovered Wave = %d, want 3", rec.Wave)
	}
	if rec.Stats.Epoch != 1 {
		t.Fatalf("recovered Epoch = %d, want 1 (crashed rotation must not publish)", rec.Stats.Epoch)
	}
}

// TestFsyncModes: every mode round-trips; parse accepts exactly the two
// flag spellings and names them when it refuses one.
func TestFsyncModes(t *testing.T) {
	for _, mode := range []durable.FsyncMode{durable.FsyncCommit, durable.FsyncNever} {
		dir := t.TempDir()
		mgr, s := openManager(t, dir, durable.Options{Fsync: mode})
		runWaves(t, mgr, s, 0, 3)
		want := dumpStore(t, s)
		stats := mgr.Stats()
		if err := mgr.Close(); err != nil {
			t.Fatal(err)
		}
		got, _ := recoverInto(t, dir)
		if d := dumpStore(t, got); d != want {
			t.Fatalf("mode %v diverges:\n--- got ---\n%s--- want ---\n%s", mode, d, want)
		}
		switch mode {
		case durable.FsyncCommit:
			if stats.Fsyncs < stats.Commits {
				t.Fatalf("commit: %d fsyncs for %d commits", stats.Fsyncs, stats.Commits)
			}
		case durable.FsyncNever:
			if stats.Fsyncs != 0 {
				t.Fatalf("never: %d fsyncs, want 0", stats.Fsyncs)
			}
		}
	}

	for s, want := range map[string]durable.FsyncMode{"commit": durable.FsyncCommit, "never": durable.FsyncNever} {
		got, err := durable.ParseFsyncMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncMode(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("String() = %q, want %q", got.String(), s)
		}
	}
	for _, s := range []string{"sometimes", "always"} {
		if _, err := durable.ParseFsyncMode(s); err == nil || !strings.Contains(err.Error(), "want commit or never") {
			t.Fatalf("ParseFsyncMode(%q) = %v, want an error naming the valid modes", s, err)
		}
	}
}

// TestObsInstruments: the durability counters move.
func TestObsInstruments(t *testing.T) {
	reg := obs.NewRegistry()
	o := obs.New(reg)
	dir := t.TempDir()
	mgr, err := durable.Open(durable.Options{Dir: dir, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	s := kvstore.New()
	if err := mgr.Register("main", s); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Begin(0, nil); err != nil {
		t.Fatal(err)
	}
	runWaves(t, mgr, s, 0, 3)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("smartflux_durable_wal_appends_total").Value(); v == 0 {
		t.Fatal("wal appends counter did not move")
	}
	if v := reg.Counter("smartflux_durable_commits_total").Value(); v != 3 {
		t.Fatalf("commits counter = %d, want 3", v)
	}
	if v := reg.Counter("smartflux_durable_snapshots_total").Value(); v != 1 {
		t.Fatalf("snapshots counter = %d, want 1", v)
	}
	if _, err := durable.Recover(dir, o); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("smartflux_durable_recovered_records_total").Value(); v == 0 {
		t.Fatal("recovered records counter did not move")
	}
}

// findOne returns the single file in dir with the given suffix.
func findOne(t *testing.T, dir, suffix string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var match string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), suffix) {
			if match != "" {
				t.Fatalf("multiple %s files in %s", suffix, dir)
			}
			match = filepath.Join(dir, e.Name())
		}
	}
	if match == "" {
		t.Fatalf("no %s file in %s", suffix, dir)
	}
	return match
}
