package kvnet

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"smartflux/internal/kvstore"
)

// startServer spins up a server on an ephemeral port and registers cleanup.
func startServer(t *testing.T) (*kvstore.Store, string) {
	t.Helper()
	store := kvstore.New()
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	return store, addr
}

func dialClient(t *testing.T, addr string) *Client {
	t.Helper()
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

func TestClientRoundTrip(t *testing.T) {
	_, addr := startServer(t)
	client := dialClient(t, addr)

	if err := client.CreateTable("t", 0); err != nil {
		t.Fatal(err)
	}
	if err := client.Put("t", "r", "c", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, found, err := client.Get("t", "r", "c")
	if err != nil || !found || string(got) != "hello" {
		t.Fatalf("Get = %q, %v, %v", got, found, err)
	}
	if _, found, err := client.Get("t", "r", "missing"); err != nil || found {
		t.Errorf("missing cell: found=%v err=%v", found, err)
	}
	if err := client.Delete("t", "r", "c"); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := client.Get("t", "r", "c"); found {
		t.Error("cell survived delete")
	}
}

// TestClientStartsNoGoroutines holds the client to its lockstep design:
// every call runs on its caller's goroutine, so dialing, calling and idling
// past the read deadline leave the goroutine count where it stood before the
// dial. The server serves its one connection on a goroutine started before
// the count is taken, so the count sees the client alone.
func TestClientStartsNoGoroutines(t *testing.T) {
	store := kvstore.New()
	if _, err := store.EnsureTable("t", kvstore.TableOptions{}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		served <- srv.serveConn(conn)
	}()

	// Settle the count: goroutines of earlier tests may still be exiting.
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == before {
			break
		}
		before = n
	}

	const readTimeout = 50 * time.Millisecond
	client, err := DialConfig(ln.Addr().String(), ClientConfig{ReadTimeout: readTimeout})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Put("t", "a", "c", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := client.Get("t", "a", "c"); err != nil || !ok || string(v) != "x" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	if err := client.Apply("t", []kvstore.Op{{Row: "b", Column: "c", Value: []byte("y")}}); err != nil {
		t.Fatal(err)
	}
	if cells, err := client.Scan("t", kvstore.ScanOptions{}); err != nil || len(cells) != 2 {
		t.Fatalf("Scan = %d cells, %v", len(cells), err)
	}
	time.Sleep(3 * readTimeout) // idle past the read deadline
	if got := runtime.NumGoroutine(); got != before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines with an idle client, %d before the dial:\n%s", got, before, buf[:runtime.Stack(buf, true)])
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("serving the client: %v", err)
	}
}

// getFloat reads a float cell through Get and kvstore.DecodeFloat.
func getFloat(c *Client, table, row, column string) (float64, bool, error) {
	raw, found, err := c.Get(table, row, column)
	if err != nil || !found {
		return 0, found, err
	}
	v, err := kvstore.DecodeFloat(raw)
	return v, err == nil, err
}

// TestClientFloatHelpers round-trips a kvstore.EncodeFloat value through the
// client's Put and Get.
func TestClientFloatHelpers(t *testing.T) {
	_, addr := startServer(t)
	client := dialClient(t, addr)
	if err := client.CreateTable("t", 0); err != nil {
		t.Fatal(err)
	}
	if err := client.Put("t", "r", "c", kvstore.EncodeFloat(3.25)); err != nil {
		t.Fatal(err)
	}
	v, found, err := getFloat(client, "t", "r", "c")
	if err != nil || !found || v != 3.25 {
		t.Fatalf("float read back = %v, %v, %v", v, found, err)
	}
}

func TestClientScanAndBatch(t *testing.T) {
	_, addr := startServer(t)
	client := dialClient(t, addr)
	if err := client.CreateTable("t", 0); err != nil {
		t.Fatal(err)
	}
	ops := []kvstore.Op{
		{Row: "a", Column: "c", Value: kvstore.EncodeFloat(1)},
		{Row: "b", Column: "c", Value: kvstore.EncodeFloat(2)},
		{Row: "c", Column: "c", Value: kvstore.EncodeFloat(3)},
	}
	if err := client.Apply("t", ops); err != nil {
		t.Fatal(err)
	}
	cells, err := client.Scan("t", kvstore.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 || cells[0].Row != "a" || cells[2].Row != "c" {
		t.Fatalf("scan = %+v", cells)
	}
	// Delete through a batch.
	if err := client.Apply("t", []kvstore.Op{{Row: "a", Column: "c", Delete: true}}); err != nil {
		t.Fatal(err)
	}
	cells, _ = client.Scan("t", kvstore.ScanOptions{})
	if len(cells) != 2 {
		t.Errorf("after batch delete: %d cells", len(cells))
	}
}

func TestServerErrorsPropagate(t *testing.T) {
	_, addr := startServer(t)
	client := dialClient(t, addr)
	err := client.Put("nosuch", "r", "c", nil)
	if err == nil || !strings.Contains(err.Error(), "table not found") {
		t.Errorf("want table-not-found error, got %v", err)
	}
	// The connection stays usable after a server-side error.
	if err := client.CreateTable("t", 0); err != nil {
		t.Errorf("connection unusable after error: %v", err)
	}
}

func TestServerSharedState(t *testing.T) {
	store, addr := startServer(t)
	client := dialClient(t, addr)
	if err := client.CreateTable("t", 0); err != nil {
		t.Fatal(err)
	}
	if err := client.Put("t", "r", "c", kvstore.EncodeFloat(7)); err != nil {
		t.Fatal(err)
	}
	// Mutations are visible directly in the backing store.
	table, err := store.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	v, ok := table.GetFloat("r", "c")
	if !ok || v != 7 {
		t.Errorf("backing store value = %v, %v", v, ok)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr := startServer(t)
	boot := dialClient(t, addr)
	if err := boot.CreateTable("t", 0); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			for i := 0; i < 50; i++ {
				row := fmt.Sprintf("g%d-r%d", g, i)
				if err := client.Put("t", row, "c", kvstore.EncodeFloat(float64(i))); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	cells, err := boot.Scan("t", kvstore.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 200 {
		t.Errorf("scan found %d cells, want 200", len(cells))
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv := NewServer(kvstore.New())
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}
