package kvnet

import (
	"errors"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"smartflux/internal/kvstore"
	"smartflux/internal/obs"
)

// startInstrumentedServer spins up a server with an observer on reg.
func startInstrumentedServer(t *testing.T) (*Server, string, *obs.Registry) {
	t.Helper()
	srv := NewServer(kvstore.New())
	reg := obs.NewRegistry()
	srv.Instrument(obs.New(reg))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr, reg
}

// errCounter names the serving-error counter of one kind.
func errCounter(kind string) string {
	return `smartflux_kvnet_errors_total{kind="` + kind + `"}`
}

// serveErrors sums the decode, encode and accept error counters.
func serveErrors(reg *obs.Registry) uint64 {
	snap := reg.Snapshot()
	return snap.Counters[errCounter("decode")] + snap.Counters[errCounter("encode")] + snap.Counters[errCounter("accept")]
}

// eventually polls cond for up to five seconds and reports whether it came
// to hold: the serving goroutines count an error after the client sees it.
func eventually(cond func() bool) bool {
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

// waitCounter waits for the named counter to reach at least min, and
// returns its value then.
func waitCounter(reg *obs.Registry, name string, min uint64) uint64 {
	eventually(func() bool { return reg.Snapshot().Counters[name] >= min })
	return reg.Snapshot().Counters[name]
}

func TestServerInstrumented(t *testing.T) {
	_, addr, reg := startInstrumentedServer(t)
	client := dialClient(t, addr)

	if err := client.CreateTable("t", 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := client.Put("t", "r", "c", kvstore.EncodeFloat(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := client.Get("t", "r", "c"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Scan("t", kvstore.ScanOptions{}); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Counters[`smartflux_kvnet_requests_total{op="put"}`]; got != 5 {
		t.Errorf("put requests = %d, want 5", got)
	}
	if got := snap.Counters[`smartflux_kvnet_requests_total{op="get"}`]; got != 1 {
		t.Errorf("get requests = %d, want 1", got)
	}
	if got := snap.Counters["smartflux_kvnet_connections_total"]; got != 1 {
		t.Errorf("connections = %d, want 1", got)
	}
	if h := snap.Histograms["smartflux_kvnet_request_duration_seconds"]; h.Count != 8 {
		t.Errorf("request duration samples = %d, want 8", h.Count)
	}
}

// TestServerSurfacesDecodeErrors sends garbage bytes: the server must count
// the decode failure, in aggregate and for the connection, instead of
// silently dropping the connection.
func TestServerSurfacesDecodeErrors(t *testing.T) {
	_, addr, reg := startInstrumentedServer(t)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("this is not a gob frame")); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	if got := waitCounter(reg, errCounter("decode"), 1); got != 1 {
		t.Errorf("decode errors = %d, want 1", got)
	}
	sawConnCounter := eventually(func() bool {
		for name := range reg.Snapshot().Counters {
			if strings.HasPrefix(name, "smartflux_kvnet_conn_errors_total{remote=") {
				return true
			}
		}
		return false
	})
	if !sawConnCounter {
		t.Error("missing per-connection error counter")
	}
}

// failingListener's Accept fails with an error that is not a close.
type failingListener struct{ net.Listener }

func (failingListener) Accept() (net.Conn, error) { return nil, errors.New("accept refused") }

// TestServerCountsAcceptErrors: a listener that fails is counted, not
// silently abandoned.
func TestServerCountsAcceptErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(kvstore.New())
	reg := obs.NewRegistry()
	srv.Instrument(obs.New(reg))
	if _, err := srv.ServeListener(failingListener{ln}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if got := waitCounter(reg, errCounter("accept"), 1); got != 1 {
		t.Errorf("accept errors = %d, want 1", got)
	}
}

// writeFailingListener hands out connections whose writes fail with an
// error that is not a clean disconnect.
type writeFailingListener struct{ net.Listener }

func (l writeFailingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return writeFailingConn{c}, nil
}

type writeFailingConn struct{ net.Conn }

func (writeFailingConn) Write([]byte) (int, error) { return 0, errors.New("write refused") }

// TestServerCountsEncodeErrors: a response that cannot be written is
// counted as an encode error, in aggregate and for the connection.
func TestServerCountsEncodeErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(kvstore.New())
	reg := obs.NewRegistry()
	srv.Instrument(obs.New(reg))
	addr, err := srv.ServeListener(writeFailingListener{ln})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := DialConfig(addr, ClientConfig{ReadTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Ping(); err == nil {
		t.Fatal("ping answered by a server that cannot write")
	}
	if got := waitCounter(reg, errCounter("encode"), 1); got < 1 {
		t.Errorf("encode errors = %d, want at least 1", got)
	}
	if got := reg.Snapshot().Counters[errCounter("decode")]; got != 0 {
		t.Errorf("decode errors = %d, want 0", got)
	}
}

// TestServerCleanDisconnectNotAnError: EOF between frames is a normal
// hang-up, not a fault.
func TestServerCleanDisconnectNotAnError(t *testing.T) {
	srv, addr, reg := startInstrumentedServer(t)

	client := dialClient(t, addr)
	if err := client.CreateTable("t", 0); err != nil {
		t.Fatal(err)
	}
	client.Close()

	// Give the serving goroutine a moment to observe the EOF.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		srv.mu.Lock()
		n := len(srv.conns)
		srv.mu.Unlock()
		if n == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := serveErrors(reg); n != 0 {
		t.Fatalf("clean disconnect counted as %d serving errors", n)
	}
}

// TestServerUninstrumentedSurvivesBadFrames: without an observer a server
// still drops a connection that sends garbage and goes on serving others.
func TestServerUninstrumentedSurvivesBadFrames(t *testing.T) {
	srv := NewServer(kvstore.New())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{0xff, 0xfe, 0xfd}); err != nil {
		t.Fatal(err)
	}
	// A torn frame: the server reads EOF mid-header and must hang up.
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("server did not hang up on a torn frame: %v", err)
	}
	conn.Close()

	client := dialClient(t, addr)
	if err := client.CreateTable("t", 0); err != nil {
		t.Fatalf("server stopped serving after a bad connection: %v", err)
	}
}
