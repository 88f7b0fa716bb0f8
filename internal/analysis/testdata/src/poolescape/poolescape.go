// Package poolescape is the corpus for the pooled-memory use-after-release
// analyzer: positives exercise reads, aliases, stores and returns of
// released cells; negatives pin the happy paths (use-then-release, copies,
// scalar results, per-iteration reacquisition) as clean.
package poolescape

import (
	"sync"

	"smartflux/internal/kvstore"
	"smartflux/internal/kvstore/wire"
)

// --- positives -------------------------------------------------------------

// useAfterRelease reads a buffer after returning it to the pool.
func useAfterRelease() int {
	buf := wire.GetBuffer()
	buf.Release()
	return buf.Len() // want `pooled value "buf" used after release`
}

// aliasAfterRelease reads a zero-copy payload view after the backing buffer
// was released.
func aliasAfterRelease(src *srcConn) byte {
	buf := wire.GetBuffer()
	_, payload, err := wire.ReadFrame(src, buf)
	if err != nil {
		buf.Release()
		return 0
	}
	buf.Release()
	return payload[0] // want `pooled value "payload" used after release`
}

// condReleaseThenUse releases on one path only; the later use is a bug on
// that path.
func condReleaseThenUse(drop bool) []byte {
	buf := wire.GetBuffer()
	if drop {
		buf.Release()
	}
	return buf.Bytes() // want `pooled value "buf" used after release`
}

// putThenReturn hands a sync.Pool page back and then returns it to the
// caller anyway.
var pagePool sync.Pool

func putThenReturn() *[]byte {
	p := pagePool.Get().(*[]byte)
	pagePool.Put(p)
	return p // want `pooled value "p" used after release`
}

// deferredReleaseEscape returns a zero-copy view whose backing buffer a
// deferred Release is about to recycle.
func deferredReleaseEscape(src *srcConn) []byte {
	buf := wire.GetBuffer()
	defer buf.Release()
	_, payload, err := wire.ReadFrame(src, buf)
	if err != nil {
		return nil
	}
	return payload // want `return aliases pooled value "buf"`
}

// staleViewAfterReuse keeps a view across a ReadFrame that recycles the
// buffer in place.
func staleViewAfterReuse(src *srcConn) byte {
	buf := wire.GetBuffer()
	_, payload, _ := wire.ReadFrame(src, buf)
	prev := payload
	_, payload, _ = wire.ReadFrame(src, buf)
	_ = payload
	return prev[0] // want `pooled value "prev" used after release`
}

// storeAfterRelease parks a released buffer in a struct for later use.
type frameBox struct{ buf *wire.Buffer }

func storeAfterRelease(box *frameBox) {
	buf := wire.GetBuffer()
	buf.Release()
	box.buf = buf // want `pooled value "buf" used after release`
}

// decodedValueAfterRelease uses a decoded response whose Value aliases the
// released frame.
func decodedValueAfterRelease(src *srcConn) []byte {
	buf := wire.GetBuffer()
	h, payload, _ := wire.ReadFrame(src, buf)
	resp, _ := wire.DecodeResponse(h, payload)
	buf.Release()
	return resp.Value // want `pooled value "resp" used after release`
}

// batchUseAfterRelease reads a write batch after handing it back to the
// store's pool.
func batchUseAfterRelease(t *kvstore.Table) int {
	b := kvstore.GetBatch().Grow(1)
	b.PutFloat("r", "c", 1)
	if err := t.Apply(b); err != nil {
		return 0
	}
	b.Release()
	return b.Len() // want `pooled value "b" used after release`
}

// batchDeferredReleaseEscape returns a batch that a deferred Release is
// about to recycle.
func batchDeferredReleaseEscape() *kvstore.Batch {
	b := kvstore.GetBatch()
	defer b.Release()
	b.PutFloat("r", "c", 1)
	return b // want `return aliases pooled value "b"`
}

// --- negatives -------------------------------------------------------------

// useThenRelease is the happy path: all reads precede the Release.
func useThenRelease(src *srcConn) int {
	buf := wire.GetBuffer()
	_, payload, err := wire.ReadFrame(src, buf)
	if err != nil {
		buf.Release()
		return 0
	}
	n := len(payload)
	buf.Release()
	return n
}

// deferredReleaseLocalUse uses the buffer freely in-body; the deferred
// Release only runs after the last read.
func deferredReleaseLocalUse(src *srcConn) int {
	buf := wire.GetBuffer()
	defer buf.Release()
	_, payload, err := wire.ReadFrame(src, buf)
	if err != nil {
		return 0
	}
	return len(payload)
}

// copiedStringSurvivesRelease: Reader.String copies, so the value is safe
// after Release.
func copiedStringSurvivesRelease(src *srcConn) string {
	buf := wire.GetBuffer()
	_, payload, _ := wire.ReadFrame(src, buf)
	r := wire.NewReader(payload)
	s := r.String()
	buf.Release()
	return s
}

// scalarsSurviveRelease: the header and error results carry no alias into
// the pooled frame.
func scalarsSurviveRelease(src *srcConn) (uint64, error) {
	buf := wire.GetBuffer()
	h, _, err := wire.ReadFrame(src, buf)
	buf.Release()
	return h.Seq, err
}

// reacquireInLoop releases and reacquires per iteration; each generation's
// uses are within its lifetime.
func reacquireInLoop(src *srcConn, rounds int) int {
	total := 0
	for i := 0; i < rounds; i++ {
		buf := wire.GetBuffer()
		_, payload, err := wire.ReadFrame(src, buf)
		if err == nil {
			total += len(payload)
		}
		buf.Release()
	}
	return total
}

// explicitCopyEscapes copies the payload before releasing; returning the
// copy is clean.
func explicitCopyEscapes(src *srcConn) []byte {
	buf := wire.GetBuffer()
	_, payload, _ := wire.ReadFrame(src, buf)
	out := make([]byte, len(payload))
	copy(out, payload)
	buf.Release()
	return out
}

// batchReleaseAfterApply is a producer's happy path: build, apply, release.
func batchReleaseAfterApply(t *kvstore.Table) error {
	b := kvstore.GetBatch().Grow(1)
	b.PutFloat("r", "c", 1)
	err := t.Apply(b)
	b.Release()
	return err
}

// batchDeferredReleaseAfterApply returns only Apply's error; the deferred
// Release runs after it.
func batchDeferredReleaseAfterApply(t *kvstore.Table) error {
	b := kvstore.GetBatch().Grow(1)
	defer b.Release()
	b.PutFloat("r", "c", 1)
	return t.Apply(b)
}

// srcConn satisfies io.Reader for ReadFrame without importing net.
type srcConn struct{}

func (s *srcConn) Read(p []byte) (int, error) { return 0, nil }
