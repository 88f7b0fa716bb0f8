package main

import (
	"bytes"
	"fmt"
	"io"

	"smartflux"
	"smartflux/internal/kvstore/cluster"
)

// verifyMirror closes a -cluster run (mirror is nil without the flag): the
// determinism contract (DESIGN.md §8) holds when the cluster's merged dump
// is bit-identical to the live store's, version histories and logical
// timestamps included. A mismatch is an error.
func verifyMirror(out io.Writer, mirror *cluster.Client, live *smartflux.Store) error {
	if mirror == nil {
		return nil
	}
	if err := mirror.Err(); err != nil {
		return fmt.Errorf("cluster: mirror ship failed during the run: %w", err)
	}
	want := live.Dump()
	got, err := mirror.Dump(live.TableNames()...)
	if err != nil {
		return err
	}
	shards := len(mirror.Map().Shards)
	if !bytes.Equal(want, got) {
		return fmt.Errorf("cluster: merged dump diverged from the live store (%d shards)", shards)
	}
	fmt.Fprintf(out, "  cluster: %d shards, replicated; merged dump bit-identical to live store (%d cell versions)\n",
		shards, bytes.Count(want, []byte{'\n'}))
	return nil
}
