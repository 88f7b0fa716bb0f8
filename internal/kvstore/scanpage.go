package kvstore

import (
	"slices"
	"strings"
	"sync"
)

// scanCursor marks the last cell a previous page returned; collection
// resumes strictly after it. An inactive cursor means "start from the top".
type scanCursor struct {
	row    string
	col    string
	active bool
}

// collectLocked appends up to max cells of rows, the table's rows in key
// order, that match opts to dst in (row, column) order, resuming after cur
// when it is active. An inline value is carved out of *buf (see valueLocked);
// a long one is the table's blob, which is never written, so it stays valid
// after t.mu is released, but callers handing it out must either copy it
// (arenaCopyValues) or document the aliasing. Returns the extended slice, the
// summed value bytes of the appended cells, and whether collection stopped
// at max with (potentially) more cells ahead. max <= 0 means unbounded.
// Callers hold t.mu through readKeys.
func (t *Table) collectLocked(rows []*row, opts ScanOptions, cur *scanCursor, max int, dst []Cell, buf *[]byte) ([]Cell, int64, bool) {
	i := 0
	if cur != nil && cur.active {
		i, _ = slices.BinarySearchFunc(rows, cur.row, func(r *row, key string) int { return strings.Compare(r.key, key) })
	}
	var valueBytes int64
	for ; i < len(rows); i++ {
		r := rows[i]
		if !opts.matchesRow(r.key) {
			continue
		}
		for j, col := range r.cols {
			if opts.ColumnPrefix != "" && !strings.HasPrefix(col, opts.ColumnPrefix) {
				continue
			}
			if cur != nil && cur.active && r.key == cur.row && col <= cur.col {
				continue
			}
			versions := r.cells[j]
			s := versions[len(versions)-1]
			dst = append(dst, Cell{Row: r.key, Column: col, Version: Version{Timestamp: s.ts, Value: t.valueLocked(s, buf)}})
			valueBytes += int64(s.n)
			if max > 0 && len(dst) >= max {
				if cur != nil {
					cur.row, cur.col, cur.active = r.key, col, true
				}
				return dst, valueBytes, true
			}
		}
	}
	return dst, valueBytes, false
}

// arenaCopyValues replaces each cell's value with a copy carved out of one
// arena allocation sized for the whole batch — one malloc per scan instead
// of one per cell. total must be the summed value lengths (as returned by
// collectLocked). Each copy is capacity-capped so appending to one cell's
// value can never scribble over its neighbour's.
func arenaCopyValues(cells []Cell, total int64) {
	arena := make([]byte, 0, total)
	for i := range cells {
		off := len(arena)
		arena = append(arena, cells[i].Version.Value...)
		cells[i].Version.Value = arena[off:len(arena):len(arena)]
	}
}

// defaultScanPage is the page size used when callers pass pageSize <= 0,
// and the capacity of pooled page slices. It matches wire.ScanChunkCells so
// the kvnet server's streamed chunks recycle pages without reallocating.
const defaultScanPage = 256

// scanPage is a ScanPagesShared page: its cells, and the buffer their
// inline values are carved out of.
type scanPage struct {
	cells []Cell
	buf   []byte
}

// scanPagePool recycles pages between ScanPagesShared calls.
var scanPagePool = sync.Pool{New: func() any {
	return &scanPage{cells: make([]Cell, 0, defaultScanPage), buf: make([]byte, 0, defaultScanPage*inlineWidth)}
}}

// ScanPagesShared streams the latest version of every matching cell in
// (row, column) order, invoking fn with consecutive pages of up to pageSize
// cells (pageSize <= 0 uses a default). The final invocation — there is
// always at least one, possibly with an empty page — has final=true.
//
// Pages are shared, not copied, for hot paths that serialize cells and move
// on (the kvnet streaming-scan server): a value of at most 8 bytes is carved
// out of one buffer that the next page overwrites, a longer one aliases the
// table's value (immutable once written), and the page slice is pooled and
// reused across invocations. fn must not mutate the values and must not
// retain the page or any cell value past its return.
//
// Unlike Scan, the table lock is released between pages (the HBase scanner
// contract the paper's store substrate provides): a scan interleaved with
// writes sees each page atomically but not the whole result set. Cells
// already returned are never revisited; cells inserted behind the cursor
// are missed.
func (t *Table) ScanPagesShared(opts ScanOptions, pageSize int, fn func(cells []Cell, final bool) error) error {
	if pageSize <= 0 {
		pageSize = defaultScanPage
	}
	ins := t.store.ins.Load()
	sp := ins.opSpan("scan", t.name)

	var pooled *scanPage
	var page []Cell
	var buf []byte
	if pageSize <= defaultScanPage {
		pooled = scanPagePool.Get().(*scanPage)
		page, buf = pooled.cells[:0], pooled.buf[:0]
	}

	var (
		cur      scanCursor
		returned int
		total    int64
		err      error
	)
	for {
		max := pageSize
		if opts.Limit > 0 && opts.Limit-returned < max {
			max = opts.Limit - returned
		}
		var pageBytes int64
		var more bool
		buf = buf[:0]
		t.readKeys(func(rows []*row) { page, pageBytes, more = t.collectLocked(rows, opts, &cur, max, page[:0], &buf) })
		returned += len(page)
		total += pageBytes
		if opts.Limit > 0 && returned >= opts.Limit {
			more = false
		}
		err = fn(page, !more)
		if err != nil || !more {
			break
		}
	}

	if pooled != nil {
		page = page[:cap(page)]
		clear(page) // drop value references so the pool does not pin them
		pooled.cells, pooled.buf = page[:0], buf[:0]
		scanPagePool.Put(pooled)
	}
	ins.scanned(returned)
	sp.SetBytes(total)
	sp.EndErr(err)
	return err
}
