// Package ctxflow is the corpus for release's cancellation obligations:
// positives leak a cancel func or an armed I/O deadline on some path;
// negatives pin defer-discharge, all-path discharge, escape hand-off and
// non-owned conns as clean.
package ctxflow

import (
	"context"
	"time"
)

// fakeConn has the deadline/Close surface of a net.Conn without importing
// net into the corpus.
type fakeConn struct{}

func (c *fakeConn) Read(p []byte) (int, error)         { return 0, nil }
func (c *fakeConn) Close() error                       { return nil }
func (c *fakeConn) SetDeadline(t time.Time) error      { return nil }
func (c *fakeConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *fakeConn) SetWriteDeadline(t time.Time) error { return nil }

func dial() (*fakeConn, error) { return &fakeConn{}, nil }

func work(ctx context.Context) error { return nil }

// --- positives -------------------------------------------------------------

// leakOnErrorPath forgets the cancel on the early-return path.
func leakOnErrorPath(parent context.Context) error {
	ctx, cancel := context.WithTimeout(parent, time.Second) // want `cancel func "cancel" is not called on every path`
	if err := work(ctx); err != nil {
		return err
	}
	cancel()
	return nil
}

// discardedCancel throws the cancel func away at the creation site.
func discardedCancel(parent context.Context) context.Context {
	ctx, _ := context.WithCancel(parent) // want `discards its cancel func`
	return ctx
}

// leakDeadlineOnErrorPath arms a read deadline on an owned conn and returns
// through an error path that neither disarms nor closes.
func leakDeadlineOnErrorPath(buf []byte) error {
	conn, err := dial()
	if err != nil {
		return err
	}
	conn.SetReadDeadline(time.Now().Add(time.Second)) // want `arms an I/O deadline`
	if _, err := conn.Read(buf); err != nil {
		return err
	}
	conn.SetReadDeadline(time.Time{})
	return conn.Close()
}

// leakCancelOneBranch cancels in only one arm of the branch.
func leakCancelOneBranch(parent context.Context, fast bool) error {
	ctx, cancel := context.WithDeadline(parent, time.Now().Add(time.Second)) // want `cancel func "cancel" is not called on every path`
	if fast {
		cancel()
		return nil
	}
	return work(ctx)
}

// leakCancelCause leaks a WithCancelCause cancel on the fallthrough path.
func leakCancelCause(parent context.Context) error {
	ctx, cancel := context.WithCancelCause(parent) // want `cancel func "cancel" is not called on every path`
	if err := work(ctx); err != nil {
		cancel(err)
		return err
	}
	return nil
}

// leakWriteDeadline never disarms the write deadline it armed.
func leakWriteDeadline(payload []byte) error {
	conn, err := dial()
	if err != nil {
		return err
	}
	conn.SetWriteDeadline(time.Now().Add(time.Second)) // want `arms an I/O deadline`
	_, err = conn.Read(payload)
	return err
}

// --- negatives -------------------------------------------------------------

// deferCancelIsClean is the canonical idiom.
func deferCancelIsClean(parent context.Context) error {
	ctx, cancel := context.WithTimeout(parent, time.Second)
	defer cancel()
	return work(ctx)
}

// cancelOnEveryPath discharges explicitly in both arms.
func cancelOnEveryPath(parent context.Context, fast bool) error {
	ctx, cancel := context.WithCancel(parent)
	if fast {
		cancel()
		return nil
	}
	err := work(ctx)
	cancel()
	return err
}

// cancelHandedOff returns the cancel func: the caller owns the obligation.
func cancelHandedOff(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(parent, time.Second)
	return ctx, cancel
}

// deadlineOnParamConn arms a deadline on a conn it does not own: the owner
// manages its lifetime.
func deadlineOnParamConn(conn *fakeConn, buf []byte) error {
	conn.SetReadDeadline(time.Now().Add(time.Second))
	_, err := conn.Read(buf)
	return err
}

// deferCloseCoversDeadline closes the owned conn via defer, which retires
// any armed deadline with it.
func deferCloseCoversDeadline(buf []byte) error {
	conn, err := dial()
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(time.Second))
	_, err = conn.Read(buf)
	return err
}

// connHandedOff passes the conn to a manager: the obligation escapes with it.
func connHandedOff() error {
	conn, err := dial()
	if err != nil {
		return err
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	return manage(conn)
}

func manage(c *fakeConn) error { return c.Close() }
