package db

import (
	"errors"
	"testing"
)

func testSchema() Schema {
	return Schema{
		Name: "t",
		Columns: []Column{
			{Name: "id", Type: ColUint64},
			{Name: "hash", Type: ColUint64},
			{Name: "name", Type: ColString},
			{Name: "score", Type: ColFloat64},
			{Name: "tag", Type: ColString},
			{Name: "blob", Type: ColBytes},
			{Name: "count", Type: ColInt64},
		},
		UniqueIndexes: []string{"hash", "name"},
		MultiIndexes:  []string{"tag"},
	}
}

func mkRow(hash uint64, name string, score float64, tag string) Row {
	return Row{uint64(0), hash, name, score, tag, []byte{1, 2}, int64(5)}
}

func TestTableInsertGet(t *testing.T) {
	tbl, err := NewTable(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	id, err := tbl.Insert(mkRow(7, "a", 1.5, "x"))
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Fatalf("first id = %d", id)
	}
	row, ok := tbl.Get(id)
	if !ok || row[2].(string) != "a" {
		t.Fatalf("Get = %v %v", row, ok)
	}
	id2, _ := tbl.Insert(mkRow(8, "b", 2.5, "x"))
	if id2 != 2 {
		t.Fatalf("second id = %d", id2)
	}
}

func TestTableSchemaValidation(t *testing.T) {
	if _, err := NewTable(Schema{Name: "bad", Columns: []Column{{Name: "x", Type: ColString}}}); err == nil {
		t.Fatal("want error for non-uint64 first column")
	}
	s := testSchema()
	s.UniqueIndexes = append(s.UniqueIndexes, "nope")
	if _, err := NewTable(s); err == nil {
		t.Fatal("want error for index on unknown column")
	}
	s = testSchema()
	s.Columns = append(s.Columns, Column{Name: "id", Type: ColInt64})
	if _, err := NewTable(s); err == nil {
		t.Fatal("want error for duplicate column")
	}
}

func TestTableTypeChecking(t *testing.T) {
	tbl, _ := NewTable(testSchema())
	bad := mkRow(1, "a", 1, "x")
	bad[3] = "not-a-float"
	if _, err := tbl.Insert(bad); err == nil {
		t.Fatal("want type error")
	}
	short := Row{uint64(0), uint64(1)}
	if _, err := tbl.Insert(short); err == nil {
		t.Fatal("want arity error")
	}
}

func TestTableUniqueIndexes(t *testing.T) {
	tbl, _ := NewTable(testSchema())
	if _, err := tbl.Insert(mkRow(7, "a", 1, "x")); err != nil {
		t.Fatal(err)
	}
	// Duplicate uint64 unique (B-tree) index.
	_, err := tbl.Insert(mkRow(7, "b", 1, "x"))
	var uv *UniqueViolationError
	if !errors.As(err, &uv) || uv.Column != "hash" {
		t.Fatalf("want hash unique violation, got %v", err)
	}
	// Duplicate string unique (hash) index.
	_, err = tbl.Insert(mkRow(8, "a", 1, "x"))
	if !errors.As(err, &uv) || uv.Column != "name" {
		t.Fatalf("want name unique violation, got %v", err)
	}
	// After failed inserts the table must be unchanged.
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d after failed inserts", tbl.Len())
	}
}

func TestTableFindUnique(t *testing.T) {
	tbl, _ := NewTable(testSchema())
	tbl.Insert(mkRow(7, "a", 1, "x"))
	tbl.Insert(mkRow(9, "b", 2, "y"))
	row, ok := tbl.FindUnique("hash", uint64(9))
	if !ok || row[2].(string) != "b" {
		t.Fatalf("FindUnique(hash) = %v %v", row, ok)
	}
	row, ok = tbl.FindUnique("name", "a")
	if !ok || row[1].(uint64) != 7 {
		t.Fatalf("FindUnique(name) = %v %v", row, ok)
	}
	if _, ok := tbl.FindUnique("hash", uint64(999)); ok {
		t.Fatal("missing key should miss")
	}
	if _, ok := tbl.FindUnique("hash", "wrong-type"); ok {
		t.Fatal("wrong-typed key should miss")
	}
	if _, ok := tbl.FindUnique("noindex", uint64(1)); ok {
		t.Fatal("unindexed column should miss")
	}
}

func TestTableFindMulti(t *testing.T) {
	tbl, _ := NewTable(testSchema())
	tbl.Insert(mkRow(1, "a", 1, "x"))
	tbl.Insert(mkRow(2, "b", 2, "x"))
	tbl.Insert(mkRow(3, "c", 3, "y"))
	if got := tbl.Snapshot().FindMulti("tag", "x"); len(got) != 2 {
		t.Fatalf("FindMulti(x) = %d rows", len(got))
	}
	if got := tbl.Snapshot().FindMulti("tag", "z"); len(got) != 0 {
		t.Fatalf("FindMulti(z) = %d rows", len(got))
	}
	if got := tbl.Snapshot().FindMulti("name", "a"); got != nil {
		t.Fatal("FindMulti on non-multi column should return nil")
	}
}

func TestTableDeleteMaintainsIndexes(t *testing.T) {
	tbl, _ := NewTable(testSchema())
	id, _ := tbl.Insert(mkRow(1, "a", 1, "x"))
	tbl.Insert(mkRow(2, "b", 2, "x"))
	if !tbl.Delete(id) {
		t.Fatal("Delete failed")
	}
	if tbl.Delete(id) {
		t.Fatal("double delete should fail")
	}
	if _, ok := tbl.FindUnique("hash", uint64(1)); ok {
		t.Fatal("unique index not cleaned")
	}
	if got := tbl.Snapshot().FindMulti("tag", "x"); len(got) != 1 {
		t.Fatalf("multi index not cleaned: %d rows", len(got))
	}
	// Re-inserting the same unique values must work after delete.
	if _, err := tbl.Insert(mkRow(1, "a", 1, "x")); err != nil {
		t.Fatalf("reinsert after delete: %v", err)
	}
}

func TestTableScanOrderedByPK(t *testing.T) {
	tbl, _ := NewTable(testSchema())
	tbl.Insert(mkRow(5, "e", 1, "x"))
	tbl.Insert(mkRow(3, "c", 1, "y"))
	tbl.Insert(mkRow(4, "d", 1, "z"))
	var ids []uint64
	tbl.Scan(func(r Row) bool {
		ids = append(ids, r[0].(uint64))
		return true
	})
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("scan not pk-ordered: %v", ids)
		}
	}
}

func TestTableStorageBytes(t *testing.T) {
	tbl, _ := NewTable(testSchema())
	if tbl.StorageBytes() != 0 {
		t.Fatal("empty table should have 0 bytes")
	}
	id, _ := tbl.Insert(mkRow(1, "a", 1, "x"))
	after1 := tbl.StorageBytes()
	if after1 <= 0 {
		t.Fatal("bytes should grow on insert")
	}
	tbl.Insert(mkRow(2, "b", 1, "x"))
	if tbl.StorageBytes() <= after1 {
		t.Fatal("bytes should keep growing")
	}
	tbl.Delete(id)
	if tbl.StorageBytes() >= tbl.StorageBytes()+1 { // sanity
		t.Fatal("impossible")
	}
}

func TestRowEncodeDecodeRoundTrip(t *testing.T) {
	row := Row{uint64(42), int64(-7), 3.25, "hello", []byte{9, 8, 7}}
	back, err := decodeRow(encodeRow(row))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(row) {
		t.Fatalf("len = %d", len(back))
	}
	if back[0].(uint64) != 42 || back[1].(int64) != -7 || back[2].(float64) != 3.25 || back[3].(string) != "hello" {
		t.Fatalf("round trip mismatch: %v", back)
	}
	b := back[4].([]byte)
	if len(b) != 3 || b[0] != 9 {
		t.Fatalf("bytes mismatch: %v", b)
	}
}

func TestDecodeRowRejectsGarbage(t *testing.T) {
	if _, err := decodeRow([]byte{0xff, 0xff}); err == nil {
		t.Fatal("want error")
	}
	if _, err := decodeRow([]byte{1, 99}); err == nil {
		t.Fatal("want bad-tag error")
	}
}
