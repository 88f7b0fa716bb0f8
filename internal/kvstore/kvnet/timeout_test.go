package kvnet

import (
	"errors"
	"net"
	"testing"
	"time"

	"smartflux/internal/kvstore"
	"smartflux/internal/obs"
)

// silentListener accepts connections and never responds, so client reads
// block until their deadline fires.
func silentListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { ln.Close(); <-done })
	go func() {
		defer close(done)
		var conns []net.Conn
		defer func() {
			for _, c := range conns {
				c.Close()
			}
		}()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conns = append(conns, conn) // hold open, never reply
		}
	}()
	return ln.Addr().String()
}

// TestClientReadTimeout checks a configured read deadline turns a silent
// server into a prompt timeout error and bumps the timeout counter.
func TestClientReadTimeout(t *testing.T) {
	addr := silentListener(t)
	reg := obs.NewRegistry()
	client, err := DialConfig(addr, ClientConfig{
		DialTimeout: time.Second,
		ReadTimeout: 50 * time.Millisecond,
		Obs:         obs.New(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	start := time.Now()
	_, _, err = client.Get("t", "r", "c")
	if err == nil {
		t.Fatal("expected a timeout error")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want errors.Is(err, ErrTimeout)", err)
	}
	// The original net.Error must stay reachable through the sentinel wrap.
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("err = %v, want a net timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timed out after %v, deadline not applied", elapsed)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[`smartflux_kvnet_client_timeouts_total{kind="read"}`]; got != 1 {
		t.Fatalf("read timeout counter = %d, want 1", got)
	}
}

// TestClientNoDeadlinesByDefault checks the zero config keeps today's
// behavior: no deadlines, normal round trips against a live server.
func TestClientNoDeadlinesByDefault(t *testing.T) {
	_, addr := startServer(t)
	client, err := DialConfig(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.CreateTable("t", 0); err != nil {
		t.Fatal(err)
	}
	if err := client.Put("t", "r", "c", kvstore.EncodeFloat(4.5)); err != nil {
		t.Fatal(err)
	}
	v, ok, err := getFloat(client, "t", "r", "c")
	if err != nil || !ok || v != 4.5 {
		t.Fatalf("float read back = %v, %v, %v", v, ok, err)
	}
}

// TestDialTimeoutUnreachable checks DialTimeout bounds connection attempts.
func TestDialTimeoutUnreachable(t *testing.T) {
	// A listener we immediately close: connections are refused quickly,
	// so this mostly exercises the DialTimeout code path.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := DialConfig(addr, ClientConfig{DialTimeout: 100 * time.Millisecond}); err == nil {
		t.Fatal("dial to a closed port must fail")
	}
}
