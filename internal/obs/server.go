package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"
)

// DebugServer is the optional observability HTTP endpoint:
//
//	/metrics       Prometheus text exposition of the registry
//	/trace/tail    JSON array of the most recent decision events (?n=100)
//	/trace/spans   JSON array of the most recent spans (?n=100)
//	/debug/pprof/  the standard net/http/pprof profiling handlers
//	/debug/vars    expvar
//	/healthz       liveness probe
type DebugServer struct {
	addr string
	ln   net.Listener
	srv  *http.Server
	done chan struct{}

	closeOnce sync.Once
	closeErr  error
}

// StartDebugServer binds addr (e.g. "127.0.0.1:6060"; port 0 picks a free
// port) and serves the debug endpoints in a background goroutine. reg, ring
// and spans may be nil; the corresponding endpoints then serve empty
// responses.
func StartDebugServer(addr string, reg *Registry, ring *RingSink, spans *SpanRing) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/trace/tail", func(w http.ResponseWriter, r *http.Request) {
		n := 100
		if raw := r.URL.Query().Get("n"); raw != "" {
			v, err := strconv.Atoi(raw)
			if err != nil || v < 0 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			n = v
		}
		events := []DecisionEvent{}
		if ring != nil {
			events = ring.Tail(n)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(events)
	})
	mux.HandleFunc("/trace/spans", func(w http.ResponseWriter, r *http.Request) {
		n := 100
		if raw := r.URL.Query().Get("n"); raw != "" {
			v, err := strconv.Atoi(raw)
			if err != nil || v < 0 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			n = v
		}
		events := []SpanEvent{}
		if spans != nil {
			events = spans.Tail(n)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(events)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &DebugServer{
		addr: ln.Addr().String(),
		ln:   ln,
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return s, nil
}

// Addr returns the bound address (useful with port 0).
func (s *DebugServer) Addr() string {
	if s == nil {
		return ""
	}
	return s.addr
}

// Close stops the server and waits for the serve goroutine to exit. Safe on
// a nil server and safe to call multiple times.
func (s *DebugServer) Close() error {
	if s == nil {
		return nil
	}
	s.closeOnce.Do(func() {
		s.closeErr = s.srv.Close()
		<-s.done
	})
	return s.closeErr
}
