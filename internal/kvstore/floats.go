package kvstore

import (
	"slices"
	"strings"

	"smartflux/internal/metric"
)

// floatArray is what a table keeps for its ι/ε snapshots and projected row
// reads: slot s holds the newest value of the table's s-th cell in (row,
// column) order as a float64, its stamp's w read as bits (0, and ok false,
// when it is not an encoded float), beside the cell's element key. A row's
// cells take the slots from row.base on. A write to an existing cell
// rewrites its slot in place; adding or deleting a cell renumbers the slots,
// so it marks the array stale instead, and the next float read rebuilds it
// in one walk under the write lock, as a scan rebuilds the sorted row list.
// A table nobody reads through ScanColumns or ScanFloatRows never
// builds one.
type floatArray struct {
	// keys is a fresh slice at every rebuild and never written after it:
	// snapshots hand out subslices of it, which trackers keep as baselines.
	keys  []string
	vals  []float64
	ok    []bool
	stale bool
	// views caches the selection of each ScanOptions read so far. Dropped at
	// a rebuild, and when a cell switches between float and non-float.
	views []*floatView
	// projs caches the projection of each ScanFloatRows column list read so
	// far. Dropped at a rebuild only: a projection reads ok when it gathers.
	projs []*floatProjection
}

// maxFloatViews bounds the cached views, and separately the cached
// projections, of one table: a caller reading many different selections
// starts the cache over rather than growing it.
const maxFloatViews = 16

// floatProjection is one ScanFloatRows column list's view of the float
// array: the table's row keys in key order, and row-major, the slot of each
// named column's cell in each row, or -1 where the row has no such cell.
// keys is never written after the build, so a read hands it out as is.
type floatProjection struct {
	cols  []string
	keys  []string
	slots []int
}

// floatView is one ScanOptions' selection of the float array: the slots of
// its float cells in element-key order, and their keys. slots is nil when
// the selection is the run of slots from lo on, in slot order.
type floatView struct {
	opts  ScanOptions
	keys  []string
	slots []int
	lo    int
}

// cellsChangedLocked marks the float array stale, and the write plan
// invalid, after a cell was added or deleted. Callers hold t.mu.
func (t *Table) cellsChangedLocked() {
	t.plan.valid = false
	if f := t.floats; f != nil {
		f.stale = true
		f.views, f.projs = nil, nil
	}
}

// floatPutLocked stores latest, a cell's newest version after a write to
// it, in the cell's slot: in place, so the key set and every view's keys are
// kept, unless the cell switched between float and non-float, which drops
// the views. A slot of -1, or an absent or stale array, is skipped. Callers
// hold t.mu.
func (t *Table) floatPutLocked(slot int, latest stamp) {
	f := t.floats
	if slot < 0 || f == nil || f.stale {
		return
	}
	v, ok := latest.float()
	if ok != f.ok[slot] {
		f.ok[slot] = ok
		f.views = nil
	}
	f.vals[slot] = v
}

// floatsLocked returns the table's float array, building it if the table has
// none or it is stale. A build numbers the slots anew, so it drops the write
// plan, whose entries hold slots. Callers hold t.mu for writing.
func (t *Table) floatsLocked() *floatArray {
	f := t.floats
	if f == nil {
		f = &floatArray{}
		t.floats = f
	} else if !f.stale {
		return f
	}
	t.plan.valid = false
	rows := t.sortedLocked()
	var n int
	for _, r := range rows {
		n += len(r.cols)
	}
	f.keys = make([]string, 0, n)
	// Snapshots copy vals and ok out, so their old arrays are ours to reuse.
	f.vals, f.ok = slices.Grow(f.vals[:0], n), slices.Grow(f.ok[:0], n)
	for _, r := range rows {
		r.base = len(f.keys)
		f.keys = append(f.keys, r.elems...)
		for _, versions := range r.cells {
			v, ok := versions[len(versions)-1].float()
			f.vals, f.ok = append(f.vals, v), append(f.ok, ok)
		}
	}
	f.stale = false
	return f
}

// view returns the cached view of opts, or nil.
func (f *floatArray) view(opts ScanOptions) *floatView {
	for _, v := range f.views {
		if v.opts == opts {
			return v
		}
	}
	return nil
}

// viewLocked returns opts' view of f, a current float array, building and
// caching it on first use; a selection whose (row, column) order is not
// element-key order is re-sorted, and colliding keys deduplicated, as
// ScanColumns describes. Callers hold t.mu for writing.
func (t *Table) viewLocked(f *floatArray, opts ScanOptions) *floatView {
	if v := f.view(opts); v != nil {
		return v
	}
	var slots []int
	sorted := true
	for _, r := range t.sortedLocked() {
		if !opts.matchesRow(r.key) {
			continue
		}
		first := len(slots)
		for i, col := range r.cols {
			if s := r.base + i; f.ok[s] && strings.HasPrefix(col, opts.ColumnPrefix) {
				slots = append(slots, s)
			}
		}
		// Keys ascend within a row, so order can only break between rows.
		if first > 0 && first < len(slots) && f.keys[slots[first-1]] >= f.keys[slots[first]] {
			sorted = false
		}
	}
	v := &floatView{opts: opts}
	switch {
	case !sorted:
		slices.SortStableFunc(slots, func(a, b int) int { return strings.Compare(f.keys[a], f.keys[b]) })
		kept := slots[:0]
		for k, s := range slots {
			if k+1 == len(slots) || f.keys[slots[k+1]] != f.keys[s] {
				kept = append(kept, s)
			}
		}
		v.slots = kept
	case len(slots) == 0 || slots[len(slots)-1]-slots[0] == len(slots)-1:
		// Ascending and contiguous: the keys are a run of the array's own.
		if len(slots) > 0 {
			v.lo = slots[0]
		}
		v.keys = f.keys[v.lo : v.lo+len(slots) : v.lo+len(slots)]
	default:
		v.slots = slots
	}
	if v.slots != nil {
		v.keys = make([]string, len(v.slots))
		for k, s := range v.slots {
			v.keys[k] = f.keys[s]
		}
	}
	if len(f.views) == maxFloatViews {
		f.views = nil
	}
	f.views = append(f.views, v)
	return v
}

// projection returns the cached projection of cols, or nil. A list equal to
// a cached one matches it: for the package-level literals producers pass,
// that is a pointer compare per column.
func (f *floatArray) projection(cols []string) *floatProjection {
	for _, p := range f.projs {
		if slices.Equal(p.cols, cols) {
			return p
		}
	}
	return nil
}

// projectionLocked returns cols' projection of f, a current float array,
// building and caching it on first use. Callers hold t.mu for writing.
func (t *Table) projectionLocked(f *floatArray, cols []string) *floatProjection {
	if p := f.projection(cols); p != nil {
		return p
	}
	rows := t.sortedLocked()
	p := &floatProjection{cols: slices.Clone(cols), keys: make([]string, len(rows)), slots: make([]int, 0, len(rows)*len(cols))}
	for k, r := range rows {
		p.keys[k] = r.key
		for _, col := range cols {
			s := -1
			if i, ok := r.index(col); ok {
				s = r.base + i
			}
			p.slots = append(p.slots, s)
		}
	}
	if len(f.projs) == maxFloatViews {
		f.projs = nil
	}
	f.projs = append(f.projs, p)
	return p
}

// readFloats runs read with the table's float array and the cached selection
// find returns from it, under t.mu: read locked, so concurrent reads share it,
// when the array is current and find returns one; else write locked, to
// rebuild the array and build, or find, the selection first.
func readFloats[S any](t *Table, find func(f *floatArray) *S, build func(f *floatArray) *S, read func(f *floatArray, s *S)) {
	t.mu.RLock()
	if f := t.floats; f != nil && !f.stale {
		if s := find(f); s != nil {
			defer t.mu.RUnlock()
			read(f, s)
			return
		}
	}
	t.mu.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	f := t.floatsLocked()
	read(f, build(f))
}

// ScanColumns is the ι/ε snapshot: the float cells matching opts (Limit
// aside) as Columns keyed by the canonical element key "row/column", in key
// order, with the table's mutation version at the time of the read — a
// later call at the same version would return the same elements, so callers
// may keep the state and skip the read. Non-float cells are skipped. A read
// copies the selected values out of the table's float array into vals
// (regrown if short; nil allocates), and nothing else: every read of one key
// set with one opts returns the same Keys slice, never written, so a tracker
// compares two such snapshots without a merge-join.
//
// Cells are visited in (row, column) order, which is element-key order except
// where one row key is a proper prefix of another followed by a byte below
// '/' ("a" vs "a-b"); such a selection is re-sorted. Two cells whose element
// keys collide (row "a/b" column "c", row "a" column "b/c") yield one
// element: the later cell in (row, column) order wins.
func (t *Table) ScanColumns(opts ScanOptions, vals []float64) (c metric.Columns, version uint64) {
	opts.Limit = 0
	find := func(f *floatArray) *floatView { return f.view(opts) }
	build := func(f *floatArray) *floatView { return t.viewLocked(f, opts) }
	readFloats(t, find, build, func(f *floatArray, v *floatView) {
		if vals == nil {
			vals = make([]float64, len(v.keys))
		}
		vals = slices.Grow(vals[:0], len(v.keys))[:len(v.keys)]
		if v.slots == nil {
			copy(vals, f.vals[v.lo:])
		} else {
			for k, s := range v.slots {
				vals[k] = f.vals[s]
			}
		}
		c, version = metric.Columns{Keys: v.keys, Vals: vals}, t.version
	})
	t.store.ins.Load().scanned(len(c.Keys))
	return c, version
}
