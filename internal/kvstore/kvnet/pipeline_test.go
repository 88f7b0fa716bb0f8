package kvnet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"smartflux/internal/fault"
	"smartflux/internal/kvstore"
	"smartflux/internal/kvstore/wire"
	"smartflux/internal/obs"
)

// TestClientPipelinesConcurrentOps runs many concurrent ops through one
// client, which take turns on it: all must succeed over a single connection,
// and the client's and server's exact on-wire byte counters must mirror each
// other.
func TestClientPipelinesConcurrentOps(t *testing.T) {
	store := kvstore.New()
	if _, err := store.EnsureTable("t", kvstore.TableOptions{}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	reg := obs.NewRegistry()
	srv.Instrument(obs.New(reg))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	creg := obs.NewRegistry()
	client, err := DialConfig(addr, ClientConfig{Obs: obs.New(creg)})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 32
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			row := fmt.Sprintf("r%02d", w)
			if err := client.Put("t", row, "c", []byte(row)); err != nil {
				errs[w] = err
				return
			}
			v, ok, err := client.Get("t", row, "c")
			if err != nil || !ok || string(v) != row {
				errs[w] = fmt.Errorf("get %s = %q, %v, %v", row, v, ok, err)
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", w, err)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["smartflux_kvnet_connections_total"]; got != 1 {
		t.Errorf("connections = %d, want 1 (all ops took turns on one conn)", got)
	}
	csnap := creg.Snapshot()
	sent := csnap.Counters[`smartflux_kvnet_client_bytes_total{dir="sent"}`]
	recv := csnap.Counters[`smartflux_kvnet_client_bytes_total{dir="recv"}`]
	srvRecv := snap.Counters[`smartflux_kvnet_bytes_total{dir="recv"}`]
	srvSent := snap.Counters[`smartflux_kvnet_bytes_total{dir="sent"}`]
	if sent == 0 || recv == 0 {
		t.Fatalf("client byte counters empty: sent=%d recv=%d", sent, recv)
	}
	if sent != srvRecv {
		t.Errorf("client sent %d bytes, server received %d — exact accounting out of sync", sent, srvRecv)
	}
	if recv != srvSent {
		t.Errorf("client received %d bytes, server sent %d — exact accounting out of sync", recv, srvSent)
	}
}

// slowFirstWriteConn delays the connection's first write so pending ops
// pile up behind it and the writer's next flush carries all of them.
type slowFirstWriteConn struct {
	net.Conn
	once  sync.Once
	delay time.Duration
}

func (c *slowFirstWriteConn) Write(b []byte) (int, error) {
	c.once.Do(func() { time.Sleep(c.delay) })
	return c.Conn.Write(b)
}

// TestClientSendsEachPutAsItsOwnFrame checks that one call is one frame:
// concurrent Puts, queued on the client's mutex behind a stalled first
// write, still reach the server as one put frame per Put and no apply
// frame.
func TestClientSendsEachPutAsItsOwnFrame(t *testing.T) {
	store := kvstore.New()
	if _, err := store.EnsureTable("t", kvstore.TableOptions{}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	reg := obs.NewRegistry()
	srv.Instrument(obs.New(reg))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := DialConfig(addr, ClientConfig{
		Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			// The stalled first write is the hello preamble: every Put
			// below lands in the queue before the writer's next flush.
			return &slowFirstWriteConn{Conn: conn, delay: 100 * time.Millisecond}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const puts = 16
	var wg sync.WaitGroup
	errs := make([]error, puts)
	for i := 0; i < puts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			row := fmt.Sprintf("r%02d", i)
			errs[i] = client.Put("t", row, "c", []byte(row))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	boot, err := store.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	cells := boot.Scan(kvstore.ScanOptions{})
	if len(cells) != puts {
		t.Fatalf("store holds %d cells, want %d", len(cells), puts)
	}
	snap := reg.Snapshot()
	applies := snap.Counters[`smartflux_kvnet_requests_total{op="apply"}`]
	singles := snap.Counters[`smartflux_kvnet_requests_total{op="put"}`]
	if singles != puts || applies != 0 {
		t.Errorf("server saw %d put + %d apply frames for %d Puts, want %d + 0", singles, applies, puts, puts)
	}
}

// TestStreamingScanLargeResult scans a result set far larger than one chunk
// (wire.ScanChunkCells): the client must reassemble all chunks in key order
// with intact values.
func TestStreamingScanLargeResult(t *testing.T) {
	store := kvstore.New()
	boot, err := store.EnsureTable("t", kvstore.TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const rows = 3*wire.ScanChunkCells + 17
	batch := kvstore.NewBatch()
	for i := 0; i < rows; i++ {
		batch.Put(fmt.Sprintf("r%06d", i), "c", []byte(fmt.Sprintf("value-%06d", i)))
	}
	if err := boot.Apply(batch); err != nil {
		t.Fatal(err)
	}

	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	cells, err := client.Scan("t", kvstore.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != rows {
		t.Fatalf("scan returned %d cells, want %d", len(cells), rows)
	}
	for i, c := range cells {
		if want := fmt.Sprintf("r%06d", i); c.Row != want {
			t.Fatalf("cell %d out of order: row %q, want %q", i, c.Row, want)
		}
		if want := fmt.Sprintf("value-%06d", i); string(c.Version.Value) != want {
			t.Fatalf("cell %d value %q, want %q", i, c.Version.Value, want)
		}
	}
}

// TestRetryChargesFrames is the timeout-during-read regression test: with
// several concurrent ops against a server that never answers, the calls
// take turns and every try of every call times out on its own connection,
// with deterministic retry/timeout/reconnect accounting.
func TestRetryChargesFrames(t *testing.T) {
	addr := silentListener(t)
	reg := obs.NewRegistry()
	const maxRetries = 2
	client, err := DialConfig(addr, ClientConfig{
		DialTimeout:  time.Second,
		ReadTimeout:  150 * time.Millisecond,
		MaxRetries:   maxRetries,
		RetryBackoff: time.Millisecond,
		Obs:          obs.New(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const gets = 3
	var wg sync.WaitGroup
	errs := make([]error, gets)
	for i := 0; i < gets; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = client.Get("t", "r", fmt.Sprintf("c%d", i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("get %d error = %v, want ErrTimeout", i, err)
		}
	}

	snap := reg.Snapshot()
	// One read timeout per try: each get's first try plus its maxRetries.
	if got, want := snap.Counters[`smartflux_kvnet_client_timeouts_total{kind="read"}`], uint64(gets*(maxRetries+1)); got != want {
		t.Errorf("read timeouts = %d, want %d", got, want)
	}
	if got, want := snap.Counters["smartflux_kvnet_client_retries_total"], uint64(gets*maxRetries); got != want {
		t.Errorf("retries = %d, want %d (every call charged per failed try)", got, want)
	}
	// Every try but the very first redials the connection its predecessor
	// dropped.
	if got, want := snap.Counters["smartflux_kvnet_client_reconnects_total"], uint64(gets*(maxRetries+1)-1); got != want {
		t.Errorf("reconnects = %d, want %d", got, want)
	}
}

// answerOnePerConn accepts connections and answers exactly one request
// frame each, swallowing the rest — a server whose connections always stall
// after their first answer.
func answerOnePerConn(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func(conn net.Conn) {
			defer conn.Close()
			buf := wire.GetBuffer()
			defer buf.Release()
			out := wire.GetBuffer()
			defer out.Release()
			answered := false
			for {
				h, payload, err := wire.ReadFrame(conn, buf)
				if err != nil {
					return
				}
				req, err := wire.DecodeRequest(h, payload)
				if err != nil || req.Op == wire.OpHello || answered {
					if err != nil {
						return
					}
					continue
				}
				answered = true
				out.Reset()
				wire.AppendGetResponse(out, req.Seq, []byte("v"), true)
				if _, err := conn.Write(out.Bytes()); err != nil {
					return
				}
			}
		}(conn)
	}
}

// TestPipelinedPartialResponseRetry pins the stalled-connection failure
// contract: when a connection stops answering after one of the calls that
// take turns on it, the answered op completes, the stranded ops retry on a
// fresh connection, and the read deadline re-arms per delivered response.
func TestPipelinedPartialResponseRetry(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go answerOnePerConn(ln)

	reg := obs.NewRegistry()
	client, err := DialConfig(ln.Addr().String(), ClientConfig{
		DialTimeout:  time.Second,
		ReadTimeout:  150 * time.Millisecond,
		MaxRetries:   5,
		RetryBackoff: time.Millisecond,
		Obs:          obs.New(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const gets = 3
	var wg sync.WaitGroup
	errs := make([]error, gets)
	for i := 0; i < gets; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, ok, err := client.Get("t", "r", fmt.Sprintf("c%d", i))
			if err != nil {
				errs[i] = err
			} else if !ok || string(v) != "v" {
				errs[i] = fmt.Errorf("got %q, %v", v, ok)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("get %d: %v", i, err)
		}
	}
	snap := reg.Snapshot()
	// One answer per connection: finishing all gets takes gets-1 redials.
	if got, want := snap.Counters["smartflux_kvnet_client_reconnects_total"], uint64(gets-1); got != want {
		t.Errorf("reconnects = %d, want %d", got, want)
	}
	if got := snap.Counters["smartflux_kvnet_client_retries_total"]; got < gets-1 {
		t.Errorf("retries = %d, want >= %d", got, gets-1)
	}
}

// TestIdleReadDeadlineDisarms checks that a configured read deadline only
// guards in-flight frames: an idle gap far longer than the deadline must
// not produce timeouts or kill the connection.
func TestIdleReadDeadlineDisarms(t *testing.T) {
	store := kvstore.New()
	if _, err := store.EnsureTable("t", kvstore.TableOptions{}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reg := obs.NewRegistry()
	client, err := DialConfig(addr, ClientConfig{
		ReadTimeout: 100 * time.Millisecond,
		Obs:         obs.New(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if err := client.Put("t", "r", "c", []byte("x")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // idle well past the read deadline
	if _, ok, err := client.Get("t", "r", "c"); err != nil || !ok {
		t.Fatalf("get after idle gap: %v, %v", ok, err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[`smartflux_kvnet_client_timeouts_total{kind="read"}`]; got != 0 {
		t.Errorf("idle gap produced %d read timeouts, want 0", got)
	}
	if got := snap.Counters["smartflux_kvnet_client_reconnects_total"]; got != 0 {
		t.Errorf("idle gap produced %d reconnects, want 0", got)
	}
}

// TestExactlyOncePipelinedDisconnects floods a faulty connection with
// concurrent mutating ops, which take turns on it, until the injector has
// killed it mid-call a few times: every Put must succeed exactly once (one
// version per cell) even though retried frames may re-send mutations the
// server already applied.
func TestExactlyOncePipelinedDisconnects(t *testing.T) {
	store := kvstore.New()
	if _, err := store.EnsureTable("t", kvstore.TableOptions{}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	inj := fault.New(fault.Policy{
		Seed:           99,
		DisconnectRate: 0.12,
		LatencyRate:    0.2,
		Latency:        200 * time.Microsecond,
	})
	cfg := retryCfg(99)
	cfg.Dial = fault.Dialer(inj)
	reg := obs.NewRegistry()
	cfg.Obs = obs.New(reg)
	client, err := DialConfig(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const perRound = 32
	round := 0
	for ; round < 40; round++ {
		if round >= 3 && inj.Stats().Disconnects >= 2 {
			break
		}
		var wg sync.WaitGroup
		errs := make([]error, perRound)
		for i := 0; i < perRound; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				row := fmt.Sprintf("r%02d-%02d", round, i)
				errs[i] = client.Put("t", row, "v", kvstore.EncodeFloat(float64(round*perRound+i)))
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d put %d: %v", round, i, err)
			}
		}
	}
	if inj.Stats().Disconnects == 0 {
		t.Fatalf("injector produced no disconnects in %d rounds; test exercised nothing", round)
	}

	boot, err := store.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for r := 0; r < round; r++ {
		for i := 0; i < perRound; i++ {
			row := fmt.Sprintf("r%02d-%02d", r, i)
			versions := boot.GetVersions(row, "v", 0)
			if len(versions) != 1 {
				t.Fatalf("row %s has %d versions, want exactly 1 (dedup broken under retried disconnects)", row, len(versions))
			}
			total++
		}
	}
	if cells := boot.Scan(kvstore.ScanOptions{}); len(cells) != total {
		t.Errorf("store holds %d cells, want %d", len(cells), total)
	}
}
