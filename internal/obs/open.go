package obs

import (
	"fmt"
	"io"
	"os"
)

// Open turns the -obs-addr, -trace-out and -span-out flags every command
// line shares into one observer: decision events to traceOut, causal spans
// plus decision events to spanOut (one stream, so sftrace can correlate the
// ε-spend timeline with skip decisions), and with addr a debug server over
// 4096-entry trace and span rings, whose address it announces on out. All
// three empty yields a nil observer, which instruments nothing.
//
// The returned close function stops the server and closes the files, and
// returns the first sink write error or file close error: a trace that could
// not be written in full is a failed run. It must be called even when the
// observer is nil.
func Open(addr, traceOut, spanOut string, out io.Writer) (*Observer, func() error, error) {
	var (
		closers   []func() error
		sinks     []Sink
		spanSinks []SpanSink
	)
	closeAll := func() error {
		var first error
		for _, c := range closers {
			if err := c(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	if addr == "" && traceOut == "" && spanOut == "" {
		return nil, closeAll, nil
	}
	// jsonl creates one output file; its closer reports the sink's write
	// error before the file's close error.
	jsonl := func(flag, path string) (*JSONLSink, error) {
		f, err := os.Create(path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", flag, err)
		}
		sink := NewJSONLSink(f)
		closers = append(closers, func() error {
			err := sink.Err()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return fmt.Errorf("%s: %w", flag, err)
			}
			return nil
		})
		return sink, nil
	}
	fail := func(err error) (*Observer, func() error, error) {
		_ = closeAll() // the setup error is the one to report
		return nil, nil, err
	}
	if traceOut != "" {
		sink, err := jsonl("trace-out", traceOut)
		if err != nil {
			return fail(err)
		}
		sinks = append(sinks, sink)
	}
	if spanOut != "" {
		sink, err := jsonl("span-out", spanOut)
		if err != nil {
			return fail(err)
		}
		sinks = append(sinks, sink)
		spanSinks = append(spanSinks, sink)
	}
	reg := NewRegistry()
	if addr != "" {
		ring, spanRing := NewRingSink(4096), NewSpanRing(4096)
		sinks = append(sinks, ring)
		spanSinks = append(spanSinks, spanRing)
		srv, err := StartDebugServer(addr, reg, ring, spanRing)
		if err != nil {
			return fail(fmt.Errorf("obs-addr: %w", err))
		}
		closers = append(closers, func() error {
			_ = srv.Close() // best-effort teardown: the run's output is already written
			return nil
		})
		fmt.Fprintf(out, "observability on http://%s (/metrics, /trace/tail, /trace/spans, /debug/pprof)\n", srv.Addr())
	}
	return New(reg, sinks...).WithSpanSinks(spanSinks...), closeAll, nil
}
