package fault

import (
	"errors"
	"net"
	"testing"
	"time"

	"smartflux/internal/obs"
)

// decisions drains n decisions for op from a fresh injector of p.
func decisions(p Policy, op string, n int) []Decision {
	inj := New(p)
	out := make([]Decision, n)
	for i := range out {
		out[i] = inj.Decide(op)
	}
	return out
}

func TestInjectorDeterministic(t *testing.T) {
	p := Policy{Seed: 7, ErrorRate: 0.3, DisconnectRate: 0.1, LatencyRate: 0.5, Latency: time.Microsecond}
	a := decisions(p, "put", 200)
	b := decisions(p, "put", 200)
	var faults int
	for i := range a {
		if (a[i].Err == nil) != (b[i].Err == nil) || a[i].Disconnect != b[i].Disconnect || a[i].Latency != b[i].Latency {
			t.Fatalf("decision %d diverged between identical injectors: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Err != nil {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("0 faults in 200 ops at 30% error + 10% disconnect rate")
	}
}

func TestInjectorZeroPolicyInjectsNothing(t *testing.T) {
	inj := New(Policy{Seed: 1})
	for i := 0; i < 100; i++ {
		if d := inj.Decide("get"); d.Err != nil || d.Disconnect || d.Latency != 0 {
			t.Fatalf("zero policy injected %+v", d)
		}
	}
	if st := inj.Stats(); st.Ops != 100 || st.Errors != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInjectorOpFilter(t *testing.T) {
	inj := New(Policy{Seed: 3, ErrorRate: 1, Ops: map[string]bool{"put": true}})
	if d := inj.Decide("get"); d.Err != nil {
		t.Fatalf("filtered op faulted: %v", d.Err)
	}
	if d := inj.Decide("put"); !errors.Is(d.Err, ErrInjected) {
		t.Fatalf("eligible op not faulted: %v", d.Err)
	}
	// Filtered ops must not consume randomness or count as ops.
	if st := inj.Stats(); st.Ops != 1 {
		t.Fatalf("filtered ops counted: %+v", st)
	}
}

func TestInjectorDisconnectAfter(t *testing.T) {
	inj := New(Policy{Seed: 1, DisconnectAfter: 3})
	for i := 1; i <= 5; i++ {
		d := inj.Decide("write")
		want := i == 3
		if d.Disconnect != want {
			t.Fatalf("op %d disconnect = %v, want %v", i, d.Disconnect, want)
		}
		if want && !errors.Is(d.Err, ErrDisconnected) {
			t.Fatalf("disconnect err = %v", d.Err)
		}
	}
}

func TestInjectorInstrument(t *testing.T) {
	reg := obs.NewRegistry()
	inj := New(Policy{Seed: 5, ErrorRate: 1})
	inj.Instrument(obs.New(reg))
	for i := 0; i < 4; i++ {
		_ = inj.Decide("put") //nolint — decision discarded on purpose
	}
	snap := reg.Snapshot()
	if got := snap.Counters[`smartflux_fault_injected_total{kind="error"}`]; got != 4 {
		t.Fatalf("error counter = %d, want 4", got)
	}
}

// pipe returns a wrapped client end and the raw server end of a TCP pair.
func pipe(t *testing.T, inj *Injector) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srv := <-ch
	if srv.err != nil {
		t.Fatal(srv.err)
	}
	t.Cleanup(func() { client.Close(); srv.c.Close() })
	return WrapConnFrom(client, inj, ""), srv.c
}

func TestConnInjectedWriteError(t *testing.T) {
	c, _ := pipe(t, New(Policy{Seed: 9, ErrorRate: 1, Ops: map[string]bool{"write": true}}))
	if _, err := c.Write([]byte("hi")); !errors.Is(err, ErrInjected) {
		t.Fatalf("Write err = %v, want ErrInjected", err)
	}
}

func TestConnDisconnectClosesTransport(t *testing.T) {
	c, srv := pipe(t, New(Policy{Seed: 9, DisconnectAfter: 1}))
	if _, err := c.Write([]byte("hi")); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("Write err = %v, want ErrDisconnected", err)
	}
	// The peer sees the hang-up.
	_ = srv.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := srv.Read(buf); err == nil {
		t.Fatal("peer read succeeded after injected disconnect")
	}
}

func TestConnBlackholeSwallowsWrites(t *testing.T) {
	c, srv := pipe(t, New(Policy{Seed: 9, Blackhole: true}))
	n, err := c.Write([]byte("vanish"))
	if err != nil || n != 6 {
		t.Fatalf("blackholed Write = %d, %v; want full fake success", n, err)
	}
	_ = srv.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	buf := make([]byte, 16)
	if n, _ := srv.Read(buf); n != 0 {
		t.Fatalf("peer received %d blackholed bytes", n)
	}
}

func TestListenerWrapsAcceptedConns(t *testing.T) {
	inj := New(Policy{Seed: 4, ErrorRate: 1, Ops: map[string]bool{"write": true}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wrapped := WrapListener(ln, inj)
	defer wrapped.Close()
	go func() {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err == nil {
			defer c.Close()
			buf := make([]byte, 1)
			_, _ = c.Read(buf) // hold until server write attempt resolves
		}
	}()
	srvConn, err := wrapped.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer srvConn.Close()
	if _, err := srvConn.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("accepted-conn Write err = %v, want ErrInjected", err)
	}
}

func TestDialerWrapsConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err == nil {
			defer c.Close()
			buf := make([]byte, 1)
			_, _ = c.Read(buf)
		}
	}()
	dial := Dialer(New(Policy{Seed: 8, ErrorRate: 1, Ops: map[string]bool{"write": true}}))
	c, err := dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("dialed-conn Write err = %v, want ErrInjected", err)
	}
}

func TestInjectorCrashPoint(t *testing.T) {
	inj := New(Policy{
		Seed:           1,
		CrashPoints:    map[string]int{"wal_append": 3},
		CrashTornBytes: 7,
	})
	for n := 1; n <= 2; n++ {
		if d := inj.Decide("wal_append"); d.Err != nil {
			t.Fatalf("append %d: unexpected error %v", n, d.Err)
		}
	}
	// Other ops do not advance the wal_append count.
	if d := inj.Decide("snapshot"); d.Err != nil {
		t.Fatalf("snapshot: unexpected error %v", d.Err)
	}
	d := inj.Decide("wal_append")
	if !errors.Is(d.Err, ErrCrashed) || !errors.Is(d.Err, ErrInjected) {
		t.Fatalf("3rd append: err = %v, want ErrCrashed wrapping ErrInjected", d.Err)
	}
	var crash *Crash
	if !errors.As(d.Err, &crash) || crash.TornBytes != 7 {
		t.Fatalf("3rd append: err = %#v, want *Crash{TornBytes: 7}", d.Err)
	}
	// The injector is now permanently dead for every op.
	for _, op := range []string{"wal_append", "snapshot", "get"} {
		if d := inj.Decide(op); !errors.Is(d.Err, ErrCrashed) {
			t.Fatalf("post-crash %s: err = %v, want ErrCrashed", op, d.Err)
		}
	}
	st := inj.Stats()
	if st.Crashes != 1 {
		t.Fatalf("Crashes = %d, want 1", st.Crashes)
	}
}

func TestInjectorCrashPointDoesNotPerturbRandomStream(t *testing.T) {
	p := Policy{Seed: 42, ErrorRate: 0.5}
	plain := decisions(p, "op", 40)
	p.CrashPoints = map[string]int{"op": 100} // never reached in 40 ops
	withCrash := decisions(p, "op", 40)
	for i := range plain {
		if (plain[i].Err == nil) != (withCrash[i].Err == nil) {
			t.Fatalf("decision %d diverged once a crash point was configured", i)
		}
	}
}

// TestInjectorOpHook holds the op hook, the in-process fault seam, to its
// policy: crash points pass *Crash through, a listed op fails with
// ErrInjected, an unlisted op proceeds without drawing, and latency is slept
// before the hook returns.
func TestInjectorOpHook(t *testing.T) {
	inj := New(Policy{CrashPoints: map[string]int{"wal_append": 1}, CrashTornBytes: 3})
	hook := inj.OpHook()
	if err := hook("snapshot"); err != nil {
		t.Fatalf("snapshot: unexpected error %v", err)
	}
	err := hook("wal_append")
	var crash *Crash
	if !errors.As(err, &crash) || crash.TornBytes != 3 {
		t.Fatalf("hook err = %v, want *Crash{TornBytes: 3}", err)
	}

	only := map[string]bool{"put": true}
	failing := New(Policy{Seed: 2, ErrorRate: 1, Ops: only}).OpHook()
	if err := failing("put"); !errors.Is(err, ErrInjected) {
		t.Fatalf("listed op: err = %v, want ErrInjected", err)
	}
	if err := failing("get"); err != nil {
		t.Fatalf("unlisted op: err = %v, want nil", err)
	}

	// An unlisted op draws nothing: interleaving them leaves the listed
	// op's decisions where a plain sequence has them.
	p := Policy{Seed: 9, ErrorRate: 0.5, Ops: only}
	plain, mixed := New(p), New(p)
	plainHook, mixedHook := plain.OpHook(), mixed.OpHook()
	for i := 0; i < 64; i++ {
		if err := mixedHook("get"); err != nil {
			t.Fatalf("unlisted op %d: err = %v", i, err)
		}
		if a, b := plainHook("put"), mixedHook("put"); (a == nil) != (b == nil) {
			t.Fatalf("put %d diverged after an unlisted op: %v vs %v", i, a, b)
		}
	}
	if a, b := plain.Stats(), mixed.Stats(); a != b || a.Ops != 64 || a.Errors == 0 {
		t.Fatalf("stats %+v vs %+v; want equal, 64 ops, some errors", a, b)
	}

	const delay = 20 * time.Millisecond
	slow := New(Policy{Seed: 3, LatencyRate: 1, Latency: delay})
	start := time.Now()
	if err := slow.OpHook()("scan"); err != nil {
		t.Fatalf("delayed op: err = %v", err)
	}
	if took := time.Since(start); took < delay || slow.Stats().Latencies != 1 {
		t.Fatalf("hook returned after %v with %d latencies; want ≥ %v, 1", took, slow.Stats().Latencies, delay)
	}
}
