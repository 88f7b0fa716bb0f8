package cluster

// Scatter-gather scans. Rows are sharded, so a cluster scan pulls from every
// shard and merges in key order. Each shard is paged through a cursor of
// plain ScanOptions (StartRow = last merged row, inclusive), which makes a
// page fetch stateless on the server: if a shard's primary dies mid-scan,
// the failover machinery promotes its replica and the next page fetch
// resumes from the cursor against the new primary — no duplicates (cells at
// or before the cursor are skipped client-side) and no gaps (the replica
// holds every acked write). A (row, column) lives on exactly one shard, so
// the merge never sees cross-shard duplicates.

import (
	"fmt"

	"smartflux/internal/kvstore"
	"smartflux/internal/kvstore/kvnet"
)

// scanPageSize is the per-shard page fetch size in cells.
const scanPageSize = 256

// keyLess orders cells by (row, column).
func keyLess(a, b kvstore.Cell) bool {
	if a.Row != b.Row {
		return a.Row < b.Row
	}
	return a.Column < b.Column
}

// shardIter pages through one shard's scan results.
type shardIter struct {
	c     *Client
	shard int
	table string
	opts  kvstore.ScanOptions

	buf  []kvstore.Cell
	idx  int
	done bool

	// Resume cursor: the last cell handed out. Pages re-fetch from
	// lastRow inclusive and skip cells at or before (lastRow, lastCol).
	started          bool
	lastRow, lastCol string

	limit int // page size; doubles when a wide row stalls progress
	pages int // fetches issued, for the test hook
}

// next returns the iterator's current head cell without consuming it.
func (it *shardIter) next() (kvstore.Cell, bool, error) {
	for it.idx >= len(it.buf) {
		if it.done {
			return kvstore.Cell{}, false, nil
		}
		if err := it.fetch(); err != nil {
			return kvstore.Cell{}, false, err
		}
	}
	return it.buf[it.idx], true, nil
}

// advance consumes the current head, updating the resume cursor.
func (it *shardIter) advance() {
	cell := it.buf[it.idx]
	it.started, it.lastRow, it.lastCol = true, cell.Row, cell.Column
	it.idx++
}

// fetch pulls the next page from the shard, through the failover-aware
// wrapper. A full page whose cells were all at or before the cursor (a row
// wider than the page) doubles the page size and refetches, so progress is
// guaranteed.
func (it *shardIter) fetch() error {
	if it.c.onScanPage != nil {
		it.c.onScanPage(it.shard, it.pages)
	}
	it.pages++
	opts := it.opts
	if it.started {
		opts.StartRow = it.lastRow
	}
	opts.Limit = it.limit
	var cells []kvstore.Cell
	err := it.c.withShard(it.shard, func(cl *kvnet.Client) error {
		var err error
		cells, err = cl.Scan(it.table, opts)
		return err
	})
	if err != nil {
		return err
	}
	full := len(cells) == it.limit
	if it.started {
		cells = skipThroughCursor(cells, it.lastRow, it.lastCol)
	}
	it.buf, it.idx = cells, 0
	if !full {
		it.done = true
	} else if len(cells) == 0 {
		it.limit *= 2 // wide row: everything fetched was already merged
	}
	return nil
}

// skipThroughCursor drops cells at or before the (row, col) cursor.
func skipThroughCursor(cells []kvstore.Cell, row, col string) []kvstore.Cell {
	i := 0
	for i < len(cells) {
		c := cells[i]
		if c.Row > row || (c.Row == row && c.Column > col) {
			break
		}
		i++
	}
	return cells[i:]
}

// Scan returns every matching cell across all shards, merged in (row,
// column) order — the same order a single store's Scan returns. opts.Limit
// bounds the merged total.
func (c *Client) Scan(table string, opts kvstore.ScanOptions) ([]kvstore.Cell, error) {
	return c.scatterGather(table, opts, false)
}

// scatterGather runs the k-way paged merge. With versions set, each shard
// streams every retained version per cell (newest first) and the merge
// preserves those runs — the cluster dump path.
func (c *Client) scatterGather(table string, opts kvstore.ScanOptions, versions bool) ([]kvstore.Cell, error) {
	c.mu.Lock()
	shards := len(c.m.Shards)
	c.mu.Unlock()

	limit := opts.Limit
	opts.Limit = 0 // per-shard paging owns the fetch size
	iters := make([]*shardIter, shards)
	for s := 0; s < shards; s++ {
		iters[s] = &shardIter{c: c, shard: s, table: table, opts: opts, limit: scanPageSize}
	}
	if versions {
		// Version dumps are a verification path: fetch whole shards in one
		// ScanVersions call each, no paging.
		for _, it := range iters {
			it.done = true
			shard := it.shard
			var cells []kvstore.Cell
			err := c.withShard(shard, func(cl *kvnet.Client) error {
				var err error
				cells, err = cl.ScanVersions(table, opts)
				return err
			})
			if err != nil {
				return nil, err
			}
			it.buf = cells
		}
	}

	var out []kvstore.Cell
	for {
		best := -1
		var bestCell kvstore.Cell
		for _, it := range iters {
			cell, ok, err := it.next()
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			// Ties on (row, column) occur only within one shard's version
			// run, never across shards — rows are sharded — so strict less
			// keeps the first-seen iterator and preserves version order.
			if best == -1 || keyLess(cell, bestCell) {
				best, bestCell = it.shard, cell
			}
		}
		if best == -1 {
			return out, nil
		}
		iters[best].advance()
		out = append(out, bestCell)
		if limit > 0 && len(out) == limit {
			return out, nil
		}
	}
}

// ScanVersions returns every retained version of every matching cell across
// all shards — newest first per cell, cells in key order — exactly what a
// per-cell GetVersions sweep over a single store would produce. This is the
// dump path the determinism contract is verified through.
func (c *Client) ScanVersions(table string, opts kvstore.ScanOptions) ([]kvstore.Cell, error) {
	return c.scatterGather(table, opts, true)
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
