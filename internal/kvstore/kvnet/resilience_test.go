package kvnet

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"smartflux/internal/fault"
	"smartflux/internal/kvstore"
	"smartflux/internal/kvstore/wire"
	"smartflux/internal/obs"
)

// retryCfg is a client config with enough retries to ride out the injected
// fault rates used in this file.
func retryCfg(seed int64) ClientConfig {
	return ClientConfig{
		DialTimeout:  2 * time.Second,
		ReadTimeout:  2 * time.Second,
		WriteTimeout: 2 * time.Second,
		MaxRetries:   12,
		RetryBackoff: time.Millisecond,
		RetrySeed:    seed,
	}
}

// TestClientReconnectsAcrossServerRestart kills the server mid-session and
// restarts it on the same address with the same store: the next operation
// must transparently redial and succeed.
func TestClientReconnectsAcrossServerRestart(t *testing.T) {
	store := kvstore.New()
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	cfg := retryCfg(1)
	cfg.Obs = obs.New(reg)
	client, err := DialConfig(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if err := client.CreateTable("t", 0); err != nil {
		t.Fatal(err)
	}
	if err := client.Put("t", "r", "before", kvstore.EncodeFloat(1)); err != nil {
		t.Fatal(err)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(store)
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer srv2.Close()

	// The client's connection is dead; the op must fail over to a fresh one.
	if err := client.Put("t", "r", "after", kvstore.EncodeFloat(2)); err != nil {
		t.Fatalf("put after restart: %v", err)
	}
	v, ok, err := getFloat(client, "t", "r", "before")
	if err != nil || !ok || v != 1 {
		t.Fatalf("pre-restart data: %v, %v, %v", v, ok, err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["smartflux_kvnet_client_reconnects_total"]; got < 1 {
		t.Errorf("reconnects = %d, want >= 1", got)
	}
	// No retries assertion: the post-restart op's first try writes to the
	// dead connection, and whether that write fails (a retry on a fresh
	// connection) or only its read does depends on when the kernel sees
	// the reset. Deterministic retry accounting is covered by
	// TestRetryChargesFrames.
}

// TestClientRetriesThroughInjectedDisconnects runs a workload over a
// connection that randomly drops and delays: with retries configured every
// operation must still succeed and the final contents must match a
// fault-free run exactly.
func TestChaosClientRetriesThroughInjectedDisconnects(t *testing.T) {
	store := kvstore.New()
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	inj := fault.New(fault.Policy{
		Seed:           42,
		DisconnectRate: 0.1,
		LatencyRate:    0.2,
		Latency:        200 * time.Microsecond,
	})
	cfg := retryCfg(7)
	cfg.Dial = fault.Dialer(inj)
	client, err := DialConfig(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if err := client.CreateTable("t", 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		row := fmt.Sprintf("r%03d", i)
		if err := client.Put("t", row, "v", kvstore.EncodeFloat(float64(i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		v, ok, err := getFloat(client, "t", row, "v")
		if err != nil || !ok || v != float64(i) {
			t.Fatalf("get %d = %v, %v, %v", i, v, ok, err)
		}
	}
	if got := inj.Stats().Disconnects; got == 0 {
		t.Fatal("injector never disconnected; test exercised nothing")
	}
	tbl, err := store.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tbl.Scan(kvstore.ScanOptions{})); got != 100 {
		t.Fatalf("cells = %d, want 100 (one per row)", got)
	}
}

// TestMutatingRetryExactlyOnce drops the server's first response on the
// floor: the client retries the Put, the server's dedup cache answers from
// memory, and the store must hold exactly one version of the cell —
// re-applying would have written two.
func TestMutatingRetryExactlyOnce(t *testing.T) {
	store := kvstore.New()
	if _, err := store.EnsureTable("t", kvstore.TableOptions{}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	srv := NewServer(store)
	srv.Instrument(obs.New(reg))

	// Kill the connection at the server's first write: the Put is applied
	// but its response never reaches the client.
	inj := fault.New(fault.Policy{
		Seed:            1,
		DisconnectAfter: 1,
		Ops:             map[string]bool{"write": true},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.ServeListener(fault.WrapListener(ln, inj))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := DialConfig(addr, retryCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if err := client.Put("t", "row", "col", kvstore.EncodeFloat(9.5)); err != nil {
		t.Fatalf("put through lost response: %v", err)
	}
	tbl, err := store.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if versions := tbl.GetVersions("row", "col", 10); len(versions) != 1 {
		t.Fatalf("cell has %d versions, want exactly 1 (dedup must prevent double-apply)", len(versions))
	}
	snap := reg.Snapshot()
	if got := snap.Counters["smartflux_kvnet_dedup_hits_total"]; got < 1 {
		t.Errorf("dedup hits = %d, want >= 1", got)
	}
}

// TestRetryWaitsForInflightOriginal has a retry overtake its original: an
// observer holds the first Put's server goroutine for 500 ms after the store
// applied it, while the client times out after 100 ms and re-sends the same
// seq on fresh connections. Each copy must find the seq claimed and wait for
// the original's outcome, so the cell holds exactly one version.
func TestRetryWaitsForInflightOriginal(t *testing.T) {
	store := kvstore.New()
	tbl, err := store.EnsureTable("t", kvstore.TableOptions{MaxVersions: 10})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	tbl.Subscribe(kvstore.ObserverFunc(func(kvstore.Mutation) {
		once.Do(func() { time.Sleep(500 * time.Millisecond) })
	}))
	reg := obs.NewRegistry()
	srv := NewServer(store)
	srv.Instrument(obs.New(reg))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Tries start at about 0, 150, 350 and 650 ms, plus jitter: one still
	// waiting when the original finishes, or one after, gets its outcome.
	client, err := DialConfig(addr, ClientConfig{
		ReadTimeout:  100 * time.Millisecond,
		MaxRetries:   3,
		RetryBackoff: 50 * time.Millisecond,
		RetrySeed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if err := client.Put("t", "row", "col", kvstore.EncodeFloat(9.5)); err != nil {
		t.Fatalf("put whose retries overtook it: %v", err)
	}
	if versions := tbl.GetVersions("row", "col", 0); len(versions) != 1 {
		t.Fatalf("cell has %d versions, want exactly 1 (a retry applied beside its original)", len(versions))
	}
	if got := reg.Snapshot().Counters["smartflux_kvnet_dedup_hits_total"]; got < 1 {
		t.Errorf("dedup hits = %d, want >= 1", got)
	}
}

// TestStaleCopyIsRefused replays what a copy of seq 1 left unread in an
// abandoned connection's socket does once the client has had seq 2 acked:
// hand-built frames under one client ID send seq 2 Put(k, v2) on one
// connection, then seq 1 Put(k, v1) on a second. The server must refuse the
// stale copy, so the cell keeps v2, the write the client saw succeed.
func TestStaleCopyIsRefused(t *testing.T) {
	store, addr := startServer(t)
	tbl, err := store.EnsureTable("t", kvstore.TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const clientID = 42
	send := func(seq uint64, value string) wire.Response {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		buf := wire.GetBuffer()
		defer buf.Release()
		wire.AppendHello(buf, clientID)
		wire.AppendRequest(buf, &wire.Request{Op: wire.OpPut, Seq: seq, Table: "t", Row: "k", Column: "c", Value: []byte(value)})
		if _, err := conn.Write(buf.Bytes()); err != nil {
			t.Fatal(err)
		}
		h, payload, err := wire.ReadFrame(conn, buf)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := wire.DecodeResponse(h, payload)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if resp := send(2, "v2"); resp.Err != "" {
		t.Fatalf("seq 2: %s", resp.Err)
	}
	if resp := send(1, "v1"); resp.Err == "" {
		t.Error("stale seq 1 was acked")
	}
	if v, _ := tbl.Get("k", "c"); string(v) != "v2" {
		t.Fatalf("cell holds %q, want v2 (a stale copy overwrote a newer write)", v)
	}
}

// TestConnectionChurnNoLeaks slams the server with 100 connect/kill cycles —
// half clean closes, half abrupt TCP teardowns, some mid-handshake — and
// checks the goroutine count settles back to its baseline.
func TestChaosConnectionChurnNoLeaks(t *testing.T) {
	baseline := runtime.NumGoroutine()

	srv := NewServer(kvstore.New())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 100; i++ {
		switch i % 3 {
		case 0: // clean session: dial, one op, Close
			client, err := Dial(addr)
			if err != nil {
				t.Fatalf("cycle %d dial: %v", i, err)
			}
			if err := client.CreateTable("churn", 0); err != nil {
				t.Fatalf("cycle %d op: %v", i, err)
			}
			if err := client.Close(); err != nil {
				t.Fatalf("cycle %d close: %v", i, err)
			}
		case 1: // killed client: raw TCP, no frames, abrupt close
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatalf("cycle %d dial: %v", i, err)
			}
			_ = conn.Close()
		default: // killed mid-frame: partial garbage then gone
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatalf("cycle %d dial: %v", i, err)
			}
			_, _ = conn.Write([]byte{0x01})
			_ = conn.Close()
		}
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Goroutine teardown is asynchronous after conn.Close; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines = %d after churn, baseline %d: leak", runtime.NumGoroutine(), baseline)
}

// TestClientCloseIdempotentConcurrent closes a client from several
// goroutines while operations are in flight: no panics, repeat Closes
// return nil, and interrupted operations surface ErrClosed rather than raw
// transport errors.
func TestClientCloseIdempotentConcurrent(t *testing.T) {
	_, addr := startServer(t)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.CreateTable("t", 0); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; ; j++ {
				if _, _, err := client.Get("t", "r", "c"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond) // let the workers get in flight
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := client.Close(); err != nil {
				t.Errorf("concurrent Close: %v", err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrClosed) {
			t.Errorf("in-flight op failed with %v, want ErrClosed", err)
		}
	}
	if err := client.Close(); err != nil {
		t.Errorf("repeat Close = %v, want nil", err)
	}
	if _, _, err := client.Get("t", "r", "c"); !errors.Is(err, ErrClosed) {
		t.Errorf("op after Close = %v, want ErrClosed", err)
	}
}

// TestClientCloseUnblocksPendingRead closes a client whose Get is parked on
// a never-responding server: the op must fail promptly with ErrClosed
// instead of hanging.
func TestClientCloseUnblocksPendingRead(t *testing.T) {
	addr := silentListener(t)
	client, err := DialConfig(addr, ClientConfig{DialTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, _, err := client.Get("t", "r", "c")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the Get block on the read
	if err := client.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked Get returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Get still blocked after Close")
	}
}

// TestServerCloseConcurrent races several Close calls; all must return
// without panicking and repeat calls return nil.
func TestServerCloseConcurrent(t *testing.T) {
	srv := NewServer(kvstore.New())
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = srv.Close()
		}()
	}
	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Errorf("repeat Close = %v, want nil", err)
	}
}

// TestServerDrainClosesIdleConnsPromptly checks Close does not stall on
// idle connections: their reads wake immediately rather than waiting out
// the drain window.
func TestServerDrainClosesIdleConnsPromptly(t *testing.T) {
	srv := NewServer(kvstore.New())
	reg := obs.NewRegistry()
	srv.Instrument(obs.New(reg))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.CreateTable("t", 0); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= DefaultDrainTimeout/2 {
		t.Fatalf("Close took %v with an idle conn; drain must not wait out its %v window", elapsed, DefaultDrainTimeout)
	}
	if n := serveErrors(reg); n != 0 {
		t.Fatalf("drain counted %d serving errors", n)
	}
}
