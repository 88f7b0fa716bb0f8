// Package spanleak is the annotated corpus of the retired spanleak
// analyzer, kept as the regression test for release's span obligations:
// span starts not ended on some path must be reported; ended, escaping and
// wrapper-mediated spans must stay clean.
package spanleak

import "smartflux/internal/obs"

// discarded drops the span expression on the floor: nothing can end it.
func discarded(o *obs.Observer) {
	o.RootSpan("run", "run", "engine") // want `span is started and immediately discarded`
}

// blankAssigned is the same leak spelled as an explicit discard.
func blankAssigned(o *obs.Observer) {
	_ = o.RootSpan("run", "run", "engine") // want `span is started and assigned to _`
}

// leaked starts a span, decorates it, and forgets to end it.
func leaked(o *obs.Observer) {
	sp := o.RootSpan("run/w0", "wave", "engine") // want `span sp is started but never ended`
	sp.SetWave(0)
}

// leakedChild: the root escapes via return, but the child is fire-and-forget.
func leakedChild(o *obs.Observer) *obs.Span {
	root := o.RootSpan("run", "run", "engine")
	child := root.ChildKey("w0", "wave", "engine") // want `span child is started but never ended`
	child.SetWave(0)
	return root
}

// wrapper returns the span it starts: the escape makes it the caller's
// responsibility (this is the engine's waveSpan/stepSpan helper shape).
func wrapper(o *obs.Observer) *obs.Span {
	sp := o.RootSpan("run/w1", "wave", "engine")
	sp.SetWave(1)
	return sp
}

// leakedViaWrapper leaks a span obtained through a same-package wrapper:
// matching is by result type, not by callee package.
func leakedViaWrapper(o *obs.Observer) {
	sp := wrapper(o) // want `span sp is started but never ended`
	sp.SetWave(1)
}

// ended is the canonical clean shape.
func ended(o *obs.Observer) {
	sp := o.RootSpan("run/w2", "wave", "engine")
	sp.End()
}

// deferEnded ends through a defer.
func deferEnded(o *obs.Observer) {
	sp := o.RootSpan("store/t/get0", "get", "store")
	defer sp.End()
}

// deferClosureEnded ends inside a deferred closure capturing the span (the
// WAL rotate shape).
func deferClosureEnded(o *obs.Observer) (err error) {
	sp := o.RootSpan("wal/snapshot0", "wal.snapshot", "wal")
	defer func() { sp.EndErr(err) }()
	return nil
}

// nilGuardEnded guards the defer behind a nil check; the comparison is not
// an escape and the End is still reachable. Parent verdict: clean.
func nilGuardEnded(o *obs.Observer) {
	if sp := o.RootSpan("store/t/get1", "get", "store"); sp != nil {
		defer sp.End()
	}
}

// errPathEnded ends on every path via EndErr/End.
func errPathEnded(o *obs.Observer, fail func() error) error {
	sp := o.RootSpan("wal/append0", "wal.append", "wal")
	if err := fail(); err != nil {
		sp.EndErr(err)
		return err
	}
	sp.End()
	return nil
}

// endedOnlyOnError ends the span on the error path and forgets it on the
// success path. The parent spanleak analyzer called this clean: an End
// call existed somewhere in the file.
func endedOnlyOnError(o *obs.Observer, fail func() error) error {
	sp := o.RootSpan("wal/append1", "wal.append", "wal") // want `span sp is started but never ended`
	if err := fail(); err != nil {
		sp.EndErr(err)
		return err
	}
	return nil
}

// nilBranchEnded ends the span only when it is non-nil: the nil branch has
// nothing to end (the drift-signal and batch-apply shape). The parent
// spanleak analyzer called it clean too, flow-insensitively.
func nilBranchEnded(o *obs.Observer) {
	sp := o.RootSpan("drift/d0", "drift.signal", "ml")
	if sp != nil {
		sp.SetWave(0)
		sp.End()
	}
}

// nilBranchEndedEq is the same guard spelled with ==; parent verdict clean.
func nilBranchEndedEq(o *obs.Observer) {
	sp := o.RootSpan("drift/d1", "drift.signal", "ml")
	if sp == nil {
		return
	}
	sp.End()
}

// escapesArg hands the span to another function, which owns ending it.
func escapesArg(o *obs.Observer) {
	sp := o.RootSpan("run/w3/step", "step", "engine")
	finish(sp)
}

func finish(sp *obs.Span) { sp.EndErr(nil) }

// holder anchors a deliberately unemitted ID root (the engine's runSpan /
// kvnet's client root shape): a field store escapes by construction.
type holder struct{ root *obs.Span }

func escapesField(h *holder, o *obs.Observer) {
	h.root = o.RootSpan("run", "run", "engine")
}

// preDeclared assigns into a pre-declared variable and ends it later.
func preDeclared(o *obs.Observer, trace bool) {
	var sp *obs.Span
	if trace {
		sp = o.RootSpan("train/t0", "train", "ml")
	}
	sp.EndErr(nil)
}
