// Package errdrop is the annotated corpus for the errdrop analyzer.
package errdrop

import (
	"bytes"

	"smartflux/internal/durable"
	"smartflux/internal/fault"
	"smartflux/internal/kvstore"
	"smartflux/internal/kvstore/cluster"
	"smartflux/internal/kvstore/kvnet"
	"smartflux/internal/kvstore/wire"
)

type conn struct{}

func (c *conn) Close() error { return nil }

type sink struct{}

func (s *sink) Flush() error { return nil }

// dropPut discards a store-layer write error: the container silently
// diverges from what the workflow believes it wrote.
func dropPut(t *kvstore.Table) {
	t.Put("r", "c", nil) // want `call discards the error from kvstore.Put`
}

// dropDelete discards a store-layer delete error.
func dropDelete(t *kvstore.Table) {
	t.Delete("r", "c") // want `call discards the error from kvstore.Delete`
}

// dropClose discards an io.Closer-shaped error.
func dropClose(c *conn) {
	c.Close() // want `call discards the error from Close`
}

// deferDropClose is the classic truncated-output bug.
func deferDropClose(c *conn) {
	defer c.Close() // want `deferred call discards the error from Close`
}

// deferDropFlush loses buffered output silently.
func deferDropFlush(s *sink) {
	defer s.Flush() // want `deferred call discards the error from Flush`
}

// checkedPut propagates the error.
func checkedPut(t *kvstore.Table) error {
	return t.Put("r", "c", nil)
}

// ackClose acknowledges the discard explicitly and visibly.
func ackClose(c *conn) {
	_ = c.Close()
}

// deferAckClose acknowledges a deferred discard inside a closure.
func deferAckClose(c *conn) {
	defer func() { _ = c.Close() }()
}

// bareNoError calls an error-free API bare; nothing to check.
func bareNoError(t *kvstore.Table, b *bytes.Buffer) {
	t.Get("r", "c")
	b.Reset()
}

// dropFaultPut discards an injected store error: the fault fired and the
// test learned nothing.
func dropFaultPut(t *fault.Table) {
	t.Put("r", "c", nil) // want `call discards the error from fault.Put`
}

// checkedFaultPut propagates the injected error so retries can see it.
func checkedFaultPut(t *fault.Table) error {
	return t.Put("r", "c", nil)
}

// bareFaultNoError calls a fault-layer API without an error result; clean.
func bareFaultNoError(t *fault.Table) {
	t.Stats()
}

// dropCommit discards a commit error: the wave was never made durable and
// recovery will silently rewind past it.
func dropCommit(m *durable.Manager) {
	m.Commit(3, nil) // want `call discards the error from durable.Commit`
}

// deferDropManagerClose loses the final WAL flush.
func deferDropManagerClose(m *durable.Manager) {
	defer m.Close() // want `deferred call discards the error from Close`
}

// checkedCommit propagates the durability error.
func checkedCommit(m *durable.Manager) error {
	return m.Commit(3, nil)
}

// bareDurableNoError calls a durable-layer API without an error result; clean.
func bareDurableNoError(m *durable.Manager) {
	m.Epoch()
}

// dropWireDone discards the codec's sticky decode error: a torn or
// trailing-garbage frame parses as clean and the bad bytes become state.
func dropWireDone(r *wire.Reader) {
	r.Done() // want `call discards the error from wire.Done`
}

// dropWireReadFrame discards a frame-read error: the stream is now
// misaligned and every later frame decodes garbage.
func dropWireReadFrame(b *wire.Buffer) {
	wire.ReadFrame(nil, b) // want `call discards the error from wire.ReadFrame`
}

// checkedWireDone propagates the codec error.
func checkedWireDone(r *wire.Reader) error {
	return r.Done()
}

// ackWireReadFrame acknowledges the discard explicitly and visibly.
func ackWireReadFrame(b *wire.Buffer) {
	_, _, _ = wire.ReadFrame(nil, b)
}

// bareWireNoError exercises pooled-buffer recycling, which carries no
// error result and is clean to call bare.
func bareWireNoError() {
	b := wire.GetBuffer()
	b.Release()
}

// dropReplEpoch discards an epoch-stamped replication error: a fencing
// rejection (kvnet.ErrFenced) is the cluster telling this node it has been
// promoted past — dropping it is exactly the split-brain write the epoch
// exists to prevent.
func dropReplEpoch(c *kvnet.Client) {
	c.ReplEpoch(1, nil) // want `call discards the error from kvnet.ReplEpoch`
}

// checkedReplEpoch propagates the fencing rejection so the caller can
// demote itself.
func checkedReplEpoch(c *kvnet.Client) error {
	return c.ReplEpoch(1, nil)
}

// dropClusterPut discards a cluster write error: with circuit breakers in
// the path the error may be kvnet.ErrUnavailable — the op never happened,
// and nobody will retry it.
func dropClusterPut(c *cluster.Client) {
	c.PutFloat("t", "r", "c", 1) // want `call discards the error from cluster.PutFloat`
}

// checkedClusterPut propagates the breaker verdict.
func checkedClusterPut(c *cluster.Client) error {
	return c.PutFloat("t", "r", "c", 1)
}

// bareClusterNoError reads cluster topology, which carries no error result.
func bareClusterNoError(c *cluster.Client) {
	c.Map()
}
