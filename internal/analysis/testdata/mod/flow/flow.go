// Package flow carries one known poolescape and one known release finding
// so the driver and CLI tests exercise the flow-sensitive analyzers against
// a real module (the want corpora under testdata/src cover the analyzer
// semantics; this package covers driver integration and determinism).
package flow

import (
	"context"
	"sync"
	"time"
)

var pagePool sync.Pool

// UseAfterPut returns a page after handing it back to the pool: a
// poolescape finding (flow.go line 19).
func UseAfterPut() *[]byte {
	p := pagePool.Get().(*[]byte)
	pagePool.Put(p)
	return p
}

// LeakCancel leaks the cancel func on the error path: a release finding.
func LeakCancel(parent context.Context, work func(context.Context) error) error {
	ctx, cancel := context.WithTimeout(parent, time.Second)
	if err := work(ctx); err != nil {
		return err
	}
	cancel()
	return nil
}
