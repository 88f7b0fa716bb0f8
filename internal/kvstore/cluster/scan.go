package cluster

// Scatter-gather scans. Rows are sharded, so a cluster scan reads every
// shard once, through the failover-aware withShard, and merges the results
// in key order. A shard's read is one kvnet call, a snapshot of the shard;
// the merge is not one across shards. If the shard's primary dies during
// it, the failover machinery promotes its replica and the read is retried
// there from the start of the shard — no duplicates and no gaps (the
// replica holds every acked write). A (row, column) lives on exactly one
// shard, so the merge never sees cross-shard duplicates.

import (
	"fmt"

	"smartflux/internal/kvstore"
	"smartflux/internal/kvstore/kvnet"
)

// Scan returns every matching cell across all shards, merged in (row,
// column) order — the same order a single store's Scan returns.
func (c *Client) Scan(table string, opts kvstore.ScanOptions) ([]kvstore.Cell, error) {
	return c.scatterGather(table, opts, false)
}

// ScanVersions returns every retained version of every matching cell across
// all shards — newest first per cell, cells in key order — exactly what a
// single store's Table.ScanVersions returns. This is the dump path the
// determinism contract is verified through.
func (c *Client) ScanVersions(table string, opts kvstore.ScanOptions) ([]kvstore.Cell, error) {
	return c.scatterGather(table, opts, true)
}

// scatterGather reads each shard whole and merges the results; with
// versions set a shard returns every retained version per cell and the
// merge keeps each cell's run together.
func (c *Client) scatterGather(table string, opts kvstore.ScanOptions, versions bool) ([]kvstore.Cell, error) {
	c.mu.Lock()
	shards := len(c.m.Shards)
	c.mu.Unlock()

	parts := make([][]kvstore.Cell, shards)
	for s := range parts {
		if c.onShardScan != nil {
			c.onShardScan(s)
		}
		err := c.withShard(s, func(cl *kvnet.Client) error {
			var err error
			if versions {
				parts[s], err = cl.ScanVersions(table, opts)
			} else {
				parts[s], err = cl.Scan(table, opts)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return merge(parts), nil
}

// merge interleaves the shards' results, each in (row, column) order, into
// one list in that order. A (row, column) lives on one shard, so a cell's run
// of versions is never split.
func merge(parts [][]kvstore.Cell) []kvstore.Cell {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]kvstore.Cell, 0, n)
	for {
		best := -1
		for s, p := range parts {
			if len(p) > 0 && (best < 0 || keyLess(p[0], parts[best][0])) {
				best = s
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, parts[best][0])
		parts[best] = parts[best][1:]
	}
}

// keyLess orders cells by (row, column).
func keyLess(a, b kvstore.Cell) bool {
	if a.Row != b.Row {
		return a.Row < b.Row
	}
	return a.Column < b.Column
}

// Dump renders the named tables' merged contents in kvstore.Store.Dump's
// format, line for line: the cluster holds what a single store holds exactly
// when the two dumps are equal. Tables are dumped in the order given — pass
// the store's TableNames to compare against its Dump; a node cannot list its
// tables over the wire.
func (c *Client) Dump(tables ...string) ([]byte, error) {
	var out []byte
	for _, name := range tables {
		cells, err := c.ScanVersions(name, kvstore.ScanOptions{})
		if err != nil {
			return nil, fmt.Errorf("cluster: dump %s: %w", name, err)
		}
		for _, cell := range cells {
			out = kvstore.AppendDumpLine(out, name, cell.Row, cell.Column, cell.Version)
		}
	}
	return out, nil
}
