package db

import "fmt"

// TableSnapshot is an immutable point-in-time view of one table. It shares
// the table's index maps via copy-on-write: taking a snapshot is O(1) (the
// maps are marked shared), and the first mutation after a snapshot clones
// them, so snapshot reads never block writers and never see later writes.
// All methods are lock-free and safe for concurrent use.
type TableSnapshot struct {
	rows   map[uint64]Row
	pk     *BTree
	nextID uint64
	multi  map[string]map[string][]uint64
}

// Get returns the row with the given primary key.
func (s *TableSnapshot) Get(id uint64) (Row, bool) {
	r, ok := s.rows[id]
	if !ok {
		return nil, false
	}
	return append(Row(nil), r...), true
}

// FindMulti returns all rows matching a non-unique index value.
func (s *TableSnapshot) FindMulti(column string, value any) []Row {
	idx, ok := s.multi[column]
	if !ok {
		return nil
	}
	ids := idx[encodeIndexKey(value)]
	out := make([]Row, 0, len(ids))
	for _, id := range ids {
		out = append(out, append(Row(nil), s.rows[id]...))
	}
	return out
}

// Scan visits every row in primary-key order until fn returns false.
func (s *TableSnapshot) Scan(fn func(Row) bool) {
	s.pk.Ascend(func(_, id uint64) bool {
		return fn(append(Row(nil), s.rows[id]...))
	})
}

// Snapshot is a consistent point-in-time view across every table of a
// database: no commit that was in flight when the snapshot was taken is
// half-visible, and later commits are never visible. Snapshots are cheap
// (copy-on-write) and need no release — they are garbage-collected when
// dropped.
type Snapshot struct {
	names  []string
	tables map[string]*TableSnapshot
}

// Table returns a table's snapshot by name.
func (s *Snapshot) Table(name string) (*TableSnapshot, error) {
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("db: no table %q in snapshot", name)
	}
	return t, nil
}
