package db

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// ColType is a column's value type.
type ColType uint8

// Supported column types.
const (
	ColUint64 ColType = iota + 1
	ColInt64
	ColFloat64
	ColString
	ColBytes
)

// Column declares one table column.
type Column struct {
	Name string
	Type ColType
}

// Schema declares a table: its columns (column 0 is always the uint64
// auto-increment primary key) and secondary indexes.
type Schema struct {
	Name    string
	Columns []Column
	// UniqueIndexes lists columns with a unique secondary index. A uint64
	// column gets a B-tree index (ordered scans); others get a hash index.
	UniqueIndexes []string
	// MultiIndexes lists columns with a non-unique secondary index.
	MultiIndexes []string
}

// Row is one record; values align with Schema.Columns. Value Go types must
// match the column types (uint64, int64, float64, string, []byte).
type Row []any

// Table is one relational table with indexes.
type Table struct {
	// commit serializes the apply+WAL-enqueue pair of a durable mutation
	// (Database.Insert) and is what Checkpoint/Snapshot take to get
	// a consistent cross-table cut. It is deliberately separate from mu:
	// commit is held across the WAL enqueue (never across WAL I/O), mu
	// only across the in-memory map updates.
	commit  sync.Mutex
	mu      sync.RWMutex
	schema  Schema
	colIdx  map[string]int
	rows    map[uint64]Row
	pk      *BTree
	nextID  uint64
	uniqBT  map[string]*BTree            // uint64 unique indexes
	uniq    map[string]map[string]uint64 // other unique indexes (encoded key)
	multi   map[string]map[string][]uint64
	rowSize int64 // cumulative encoded size, for storage accounting
	// shared marks the maps/trees above as referenced by a live
	// TableSnapshot; the next mutation clones them first (copy-on-write).
	shared bool
}

// NewTable creates an empty table from a schema.
func NewTable(schema Schema) (*Table, error) {
	if len(schema.Columns) == 0 || schema.Columns[0].Type != ColUint64 {
		return nil, fmt.Errorf("db: table %q: column 0 must be the uint64 primary key", schema.Name)
	}
	t := &Table{
		schema: schema,
		colIdx: make(map[string]int, len(schema.Columns)),
		rows:   make(map[uint64]Row),
		pk:     NewBTree(),
		nextID: 1,
		uniqBT: make(map[string]*BTree),
		uniq:   make(map[string]map[string]uint64),
		multi:  make(map[string]map[string][]uint64),
	}
	for i, c := range schema.Columns {
		if _, dup := t.colIdx[c.Name]; dup {
			return nil, fmt.Errorf("db: table %q: duplicate column %q", schema.Name, c.Name)
		}
		t.colIdx[c.Name] = i
	}
	for _, name := range schema.UniqueIndexes {
		ci, ok := t.colIdx[name]
		if !ok {
			return nil, fmt.Errorf("db: table %q: unique index on unknown column %q", schema.Name, name)
		}
		if schema.Columns[ci].Type == ColUint64 {
			t.uniqBT[name] = NewBTree()
		} else {
			t.uniq[name] = make(map[string]uint64)
		}
	}
	for _, name := range schema.MultiIndexes {
		if _, ok := t.colIdx[name]; !ok {
			return nil, fmt.Errorf("db: table %q: index on unknown column %q", schema.Name, name)
		}
		t.multi[name] = make(map[string][]uint64)
	}
	return t, nil
}

// Len returns the row count.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// StorageBytes returns the cumulative encoded size of all rows, the
// quantity the paper reports per record type.
func (t *Table) StorageBytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rowSize
}

// Snapshot returns an immutable point-in-time view of the table. Taking
// one is O(1): the live maps are marked shared and the next mutation
// copies them. Use Database.Snapshot for a cut that is consistent across
// tables.
func (t *Table) Snapshot() *TableSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.shared = true
	return &TableSnapshot{rows: t.rows, pk: t.pk, nextID: t.nextID, multi: t.multi}
}

// SnapshotScan scans a point-in-time view of the table in primary-key
// order. Unlike Scan it holds no lock while fn runs, so a slow consumer
// (training-set extraction, export) never blocks writers.
func (t *Table) SnapshotScan(fn func(Row) bool) {
	t.Snapshot().Scan(fn)
}

// cowLocked clones the maps shared with outstanding snapshots. Callers
// hold t.mu and are about to mutate. Row values are immutable once stored,
// so the clones are shallow at the row level; multi-index slices are
// copied because Insert/Delete mutate them in place.
func (t *Table) cowLocked() {
	if !t.shared {
		return
	}
	rows := make(map[uint64]Row, len(t.rows))
	for id, r := range t.rows {
		rows[id] = r
	}
	t.rows = rows
	t.pk = t.pk.Clone()
	uniqBT := make(map[string]*BTree, len(t.uniqBT))
	for name, bt := range t.uniqBT {
		uniqBT[name] = bt.Clone()
	}
	t.uniqBT = uniqBT
	uniq := make(map[string]map[string]uint64, len(t.uniq))
	for name, idx := range t.uniq {
		m := make(map[string]uint64, len(idx))
		for k, v := range idx {
			m[k] = v
		}
		uniq[name] = m
	}
	t.uniq = uniq
	multi := make(map[string]map[string][]uint64, len(t.multi))
	for name, idx := range t.multi {
		m := make(map[string][]uint64, len(idx))
		for k, ids := range idx {
			m[k] = append([]uint64(nil), ids...)
		}
		multi[name] = m
	}
	t.multi = multi
	t.shared = false
}

// setNextID raises the auto-increment cursor (snapshot load: deleted rows
// must not make their ids reusable).
func (t *Table) setNextID(next uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if next > t.nextID {
		t.nextID = next
	}
}

// checkRow validates types against the schema.
func (t *Table) checkRow(row Row) error {
	if len(row) != len(t.schema.Columns) {
		return fmt.Errorf("db: table %q: row has %d values, schema has %d columns", t.schema.Name, len(row), len(t.schema.Columns))
	}
	for i, c := range t.schema.Columns {
		ok := false
		switch c.Type {
		case ColUint64:
			_, ok = row[i].(uint64)
		case ColInt64:
			_, ok = row[i].(int64)
		case ColFloat64:
			_, ok = row[i].(float64)
		case ColString:
			_, ok = row[i].(string)
		case ColBytes:
			_, ok = row[i].([]byte)
		}
		if !ok {
			return fmt.Errorf("db: table %q: column %q: value %T does not match type", t.schema.Name, c.Name, row[i])
		}
	}
	return nil
}

// encodeIndexKey renders a value as index key material.
func encodeIndexKey(v any) string {
	switch x := v.(type) {
	case uint64:
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], x)
		return string(b[:])
	case int64:
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(x))
		return string(b[:])
	case float64:
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], math.Float64bits(x))
		return string(b[:])
	case string:
		return x
	case []byte:
		return string(x)
	default:
		return fmt.Sprintf("%v", x)
	}
}

// Insert adds a row. row[0] (the primary key) is assigned automatically
// when zero; a nonzero pk is honored (used by WAL replay). Returns the pk.
func (t *Table) Insert(row Row) (uint64, error) {
	if err := t.checkRow(row); err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := row[0].(uint64)
	if id == 0 {
		id = t.nextID
		row = append(Row(nil), row...)
		row[0] = id
	}
	if id >= t.nextID {
		t.nextID = id + 1
	}
	if _, exists := t.rows[id]; exists {
		return 0, fmt.Errorf("db: table %q: duplicate primary key %d", t.schema.Name, id)
	}
	// Unique-index violation check before mutating anything.
	for name, bt := range t.uniqBT {
		v := row[t.colIdx[name]].(uint64)
		if _, ok := bt.Get(v); ok {
			return 0, &UniqueViolationError{Table: t.schema.Name, Column: name}
		}
	}
	for name, idx := range t.uniq {
		key := encodeIndexKey(row[t.colIdx[name]])
		if _, ok := idx[key]; ok {
			return 0, &UniqueViolationError{Table: t.schema.Name, Column: name}
		}
	}
	t.cowLocked()
	t.rows[id] = row
	t.pk.Set(id, id)
	for name, bt := range t.uniqBT {
		bt.Set(row[t.colIdx[name]].(uint64), id)
	}
	for name, idx := range t.uniq {
		idx[encodeIndexKey(row[t.colIdx[name]])] = id
	}
	for name, idx := range t.multi {
		key := encodeIndexKey(row[t.colIdx[name]])
		idx[key] = append(idx[key], id)
	}
	t.rowSize += int64(len(encodeRow(row)))
	return id, nil
}

// Get returns the row with the given primary key.
func (t *Table) Get(id uint64) (Row, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	r, ok := t.rows[id]
	if !ok {
		return nil, false
	}
	return append(Row(nil), r...), true
}

// Delete removes a row by primary key.
func (t *Table) Delete(id uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	row, ok := t.rows[id]
	if !ok {
		return false
	}
	t.cowLocked()
	delete(t.rows, id)
	t.pk.Delete(id)
	for name, bt := range t.uniqBT {
		bt.Delete(row[t.colIdx[name]].(uint64))
	}
	for name, idx := range t.uniq {
		delete(idx, encodeIndexKey(row[t.colIdx[name]]))
	}
	for name, idx := range t.multi {
		key := encodeIndexKey(row[t.colIdx[name]])
		ids := idx[key]
		for i, v := range ids {
			if v == id {
				idx[key] = append(ids[:i], ids[i+1:]...)
				break
			}
		}
		if len(idx[key]) == 0 {
			delete(idx, key)
		}
	}
	t.rowSize -= int64(len(encodeRow(row)))
	return true
}

// FindUnique looks a row up by a unique secondary index.
func (t *Table) FindUnique(column string, value any) (Row, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if bt, ok := t.uniqBT[column]; ok {
		v, isU := value.(uint64)
		if !isU {
			return nil, false
		}
		id, found := bt.Get(v)
		if !found {
			return nil, false
		}
		return append(Row(nil), t.rows[id]...), true
	}
	idx, ok := t.uniq[column]
	if !ok {
		return nil, false
	}
	id, found := idx[encodeIndexKey(value)]
	if !found {
		return nil, false
	}
	return append(Row(nil), t.rows[id]...), true
}

// ViewUniqueUint64 looks a row up by a uint64 unique index and, when found,
// calls fn with the stored row while the table read-lock is held. Unlike
// FindUnique no copy is made: rows are immutable once stored (mutations go
// through cowLocked), so reading in place is safe, but fn must not retain or
// mutate the row — or any slice/byte value inside it — past its return.
func (t *Table) ViewUniqueUint64(column string, value uint64, fn func(Row)) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	bt, ok := t.uniqBT[column]
	if !ok {
		return false
	}
	id, found := bt.Get(value)
	if !found {
		return false
	}
	fn(t.rows[id])
	return true
}

// ViewUniqueKey is ViewUniqueUint64 for the encoded-key unique indexes
// (string/bytes columns). The key is the raw index key material — for a
// string column, the string's bytes. The map probe converts without
// allocating, so a caller rendering the key into a stack buffer performs the
// whole lookup garbage-free. The no-retain contract of ViewUniqueUint64
// applies to fn.
func (t *Table) ViewUniqueKey(column string, key []byte, fn func(Row)) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx, ok := t.uniq[column]
	if !ok {
		return false
	}
	id, found := idx[string(key)]
	if !found {
		return false
	}
	fn(t.rows[id])
	return true
}

// ViewUniqueString is ViewUniqueKey for callers that already hold the key as
// a string (encodeIndexKey of a string column is the string itself).
func (t *Table) ViewUniqueString(column string, key string, fn func(Row)) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx, ok := t.uniq[column]
	if !ok {
		return false
	}
	id, found := idx[key]
	if !found {
		return false
	}
	fn(t.rows[id])
	return true
}

// Scan visits every row in primary-key order until fn returns false.
func (t *Table) Scan(fn func(Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.pk.Ascend(func(_, id uint64) bool {
		return fn(append(Row(nil), t.rows[id]...))
	})
}

// UniqueViolationError reports a unique-index conflict.
type UniqueViolationError struct {
	Table  string
	Column string
}

func (e *UniqueViolationError) Error() string {
	return fmt.Sprintf("db: unique index violation on %s.%s", e.Table, e.Column)
}

// encodeRow / decodeRow serialize a row for the WAL and for storage
// accounting.
func encodeRow(row Row) []byte {
	var buf bytes.Buffer
	writeUvarint(&buf, uint64(len(row)))
	for _, v := range row {
		switch x := v.(type) {
		case uint64:
			buf.WriteByte(byte(ColUint64))
			writeUvarint(&buf, x)
		case int64:
			buf.WriteByte(byte(ColInt64))
			var b [binary.MaxVarintLen64]byte
			n := binary.PutVarint(b[:], x)
			buf.Write(b[:n])
		case float64:
			buf.WriteByte(byte(ColFloat64))
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			buf.Write(b[:])
		case string:
			buf.WriteByte(byte(ColString))
			writeUvarint(&buf, uint64(len(x)))
			buf.WriteString(x)
		case []byte:
			buf.WriteByte(byte(ColBytes))
			writeUvarint(&buf, uint64(len(x)))
			buf.Write(x)
		default:
			// checkRow prevents this; encode a marker to keep the stream sane.
			buf.WriteByte(0)
		}
	}
	return buf.Bytes()
}

func decodeRow(data []byte) (Row, error) {
	r := bytes.NewReader(data)
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	row := make(Row, 0, n)
	for i := uint64(0); i < n; i++ {
		tb, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		switch ColType(tb) {
		case ColUint64:
			v, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		case ColInt64:
			v, err := binary.ReadVarint(r)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		case ColFloat64:
			var b [8]byte
			if _, err := r.Read(b[:]); err != nil {
				return nil, err
			}
			row = append(row, math.Float64frombits(binary.LittleEndian.Uint64(b[:])))
		case ColString:
			ln, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, err
			}
			b := make([]byte, ln)
			if _, err := r.Read(b); err != nil {
				return nil, err
			}
			row = append(row, string(b))
		case ColBytes:
			ln, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, err
			}
			b := make([]byte, ln)
			if _, err := r.Read(b); err != nil {
				return nil, err
			}
			row = append(row, b)
		default:
			return nil, fmt.Errorf("db: bad column tag %d", tb)
		}
	}
	return row, nil
}

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], v)
	buf.Write(b[:n])
}
