package cluster

import (
	"bytes"
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"

	"smartflux/internal/kvstore"
)

// TestDumpIsASnapshotBesideAWriter dumps a table again and again while one
// writer goroutine changes it, and holds every dump to a state the writer
// passed through: the reference dump after some prefix of its ops, from
// the ops acked before the dump began to the one in flight when it ended.
// The writer's ops are ordered so that a read mixing two moments is no
// such state: each round puts a late row, then an early one, with the
// other rows between them, and deletes or puts back a middle one, so a
// read that meets the early row before a round and the late row after the
// next one, or lists the cells before a delete and reads them after it,
// fails. A store's Dump reads its table under one lock hold, so it passes
// whole. A cluster's Dump reads each shard in one call, so the rule holds
// per shard — each shard's lines against the reference's lines of that
// shard, with a prefix of its own — and not across shards.
func TestDumpIsASnapshotBesideAWriter(t *testing.T) {
	t.Run("store", func(t *testing.T) {
		live := kvstore.New()
		tab, err := live.EnsureTable("t", kvstore.TableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		apply := func(op kvstore.Op) error {
			if op.Delete {
				return tab.Delete(op.Row, op.Column)
			}
			return tab.Put(op.Row, op.Column, op.Value)
		}
		dumpBesideWriter(t, 1, func(string) int { return 0 }, apply, func() ([]byte, error) { return live.Dump(), nil })
	})
	t.Run("3-shard cluster", func(t *testing.T) {
		tc := startCluster(t, 3, false, nil)
		writer, reader := tc.client(Config{}), tc.client(Config{})
		if err := writer.CreateTable("t", 0); err != nil {
			t.Fatal(err)
		}
		apply := func(op kvstore.Op) error {
			if op.Delete {
				return writer.Delete("t", op.Row, op.Column)
			}
			return writer.Put("t", op.Row, op.Column, op.Value)
		}
		dumpBesideWriter(t, 3, writer.shardFor, apply, func() ([]byte, error) { return reader.Dump("t") })
	})
}

// dumpBesideWriter runs the snapshot check of TestDumpIsASnapshotBesideAWriter
// on a table "t" of default MaxVersions that apply writes to and dump reads,
// whose rows shardOf places on shards shards.
func dumpBesideWriter(t *testing.T, shards int, shardOf func(row string) int, apply func(kvstore.Op) error, dump func() ([]byte, error)) {
	const rows, rounds = 40, 400
	var ops []kvstore.Op
	onShard := make([][]string, shards)
	for i := range rows {
		row := fmt.Sprintf("r-%03d", i)
		ops = append(ops, kvstore.Op{Row: row, Column: "c", Value: []byte("fill")})
		onShard[shardOf(row)] = append(onShard[shardOf(row)], row)
	}
	for _, keys := range onShard {
		if len(keys) < 3 {
			t.Fatalf("a shard holds rows %q; the writer needs three", keys)
		}
	}
	setup := len(ops)
	for k := range rounds {
		v := []byte(strconv.Itoa(k))
		for _, keys := range onShard {
			early, mid, late := keys[0], keys[len(keys)/2], keys[len(keys)-1]
			ops = append(ops, kvstore.Op{Row: late, Column: "c", Value: v}, kvstore.Op{Row: early, Column: "c", Value: v},
				kvstore.Op{Row: mid, Column: "c", Value: v, Delete: k%2 == 0})
		}
	}

	// want[p][s] is shard s's lines of the reference dump after ops[:p].
	ref := kvstore.New()
	refT, _ := ref.EnsureTable("t", kvstore.TableOptions{})
	want := [][]string{byShard(ref.Dump(), shards, shardOf)}
	for _, op := range ops {
		if op.Delete {
			_ = refT.Delete(op.Row, op.Column)
		} else {
			_ = refT.Put(op.Row, op.Column, op.Value)
		}
		want = append(want, byShard(ref.Dump(), shards, shardOf))
	}

	for _, op := range ops[:setup] {
		if err := apply(op); err != nil {
			t.Fatal(err)
		}
	}
	var acked atomic.Int64
	acked.Store(int64(setup))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := setup; p < len(ops); p++ {
			if err := apply(ops[p]); err != nil {
				t.Error(err)
				return
			}
			acked.Store(int64(p + 1))
		}
	}()
	defer func() { <-done }()
	for dumps := 0; ; dumps++ {
		select {
		case <-done:
			return
		default:
		}
		lo := int(acked.Load())
		d, err := dump()
		if err != nil {
			t.Fatal(err)
		}
		// The op after the last acked one may be applied and not yet acked.
		hi := min(int(acked.Load())+1, len(ops))
		for s, got := range byShard(d, shards, shardOf) {
			p := lo
			for p <= hi && want[p][s] != got {
				p++
			}
			if p > hi {
				t.Fatalf("dump %d: shard %d's lines are no state after ops %d..%d of the writer:\n%s", dumps, s, lo, hi, got)
			}
		}
	}
}

// byShard splits the lines of a dump by the shard of their row.
func byShard(dump []byte, shards int, shardOf func(row string) int) []string {
	parts := make([][]byte, shards)
	for line := range bytes.Lines(dump) {
		_, rest, _ := bytes.Cut(line, []byte(" "))
		quoted, err := strconv.QuotedPrefix(string(rest))
		if err != nil {
			panic(fmt.Sprintf("dump line %q: %v", line, err))
		}
		row, _ := strconv.Unquote(quoted)
		s := shardOf(row)
		parts[s] = append(parts[s], line...)
	}
	out := make([]string, shards)
	for s, p := range parts {
		out[s] = string(p)
	}
	return out
}
