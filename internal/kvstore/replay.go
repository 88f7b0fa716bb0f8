package kvstore

// Replay operations rebuild table state from a durability log. Unlike Put and
// Delete they take explicit timestamps, never advance the store clock, never
// notify observers, and are idempotent — replaying the same record twice (as
// can happen when a write-ahead log overlaps a snapshot) leaves the table
// bit-identical to replaying it once.

// MaxVersions returns the per-cell version bound the table was created with.
func (t *Table) MaxVersions() int { return t.maxVersions }

// AdvanceClock raises the store's logical clock to ts if it is currently
// behind it; a ts at or below the clock is a no-op. Replication followers use
// it while applying shipped records, which may arrive out of timestamp order:
// taking the max keeps the clock equal to the highest timestamp applied, so a
// promoted follower resumes the exact timestamp sequence of its dead primary.
func (s *Store) AdvanceClock(ts uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ts > s.clock {
		s.clock = ts
	}
}

// ReplayPut inserts a version with an explicit timestamp at (row, column),
// stored as Apply stores a put. Versions are kept ordered by timestamp, a
// version whose timestamp already exists in the cell is skipped, and the
// cell is trimmed to MaxVersions oldest-first — so an in-order replay
// reproduces exactly what the original Put sequence built. Observers are not
// notified and the store clock is untouched; callers restore the clock
// separately (Store.SetClock).
func (t *Table) ReplayPut(row, column string, value []byte, ts uint64) error {
	if row == "" || column == "" {
		return ErrEmptyKey
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.windowLocked(t.addRowLocked(row), column)
	versions := *c.win
	// Find the insertion point; versions are newest-last.
	idx := len(versions)
	for idx > 0 && versions[idx-1].ts > ts {
		idx--
	}
	if idx > 0 && versions[idx-1].ts == ts {
		return nil // duplicate replay of the same record
	}
	t.insertLocked(&c, idx, t.stampLocked(ts, value))
	return nil
}

// ReplayDelete removes a cell during log replay. Like the live Delete it
// drops the whole cell; deleting a missing cell is a no-op, which is what
// makes replay of delete records idempotent. Observers are not notified and
// the store clock is untouched.
func (t *Table) ReplayDelete(row, column string) error {
	if row == "" || column == "" {
		return ErrEmptyKey
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.deleteLocked(t.rows[row], column)
	return nil
}
