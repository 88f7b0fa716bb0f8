package metric

// The element-list form of a container state. The frozen benchmark (bench/)
// reads states this way — workflow.Container.Snapshot, Tracker.Observe and
// Tracker.Commit below — and nothing else does: this file is the frozen
// benchmark's adapter; delete it with ROADMAP.md item 4(b).

// Elem is one element of a data container: its key ("row/column") and
// numeric value.
type Elem struct {
	Key string
	Val float64
}

// State is a container state as a list of elements in strictly increasing
// Key order, immutable once built.
type State []Elem

// ColumnsOf converts a State to Columns.
func ColumnsOf(s State) Columns {
	c := Columns{Keys: make([]string, len(s)), Vals: make([]float64, len(s))}
	for i, e := range s {
		c.Keys[i], c.Vals[i] = e.Key, e.Val
	}
	return c
}

// Observe is ObserveColumns for a State.
//
//sflint:ignore unused only bench/ calls it; bench/ is frozen until ROADMAP item 4, and item 13(b) deletes it after
func (t *Tracker) Observe(state State) float64 { return t.ObserveColumns(ColumnsOf(state)) }

// Commit is CommitColumns for a State.
//
//sflint:ignore unused only bench/ calls it; bench/ is frozen until ROADMAP item 4, and item 13(b) deletes it after
func (t *Tracker) Commit(state State) { t.CommitColumns(ColumnsOf(state)) }
