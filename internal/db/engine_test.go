package db

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"nnlqp/internal/models"
)

// engineSchemas is a two-table schema exercising every index kind.
func engineSchemas() []Schema {
	return []Schema{
		{
			Name: "kv",
			Columns: []Column{
				{Name: "id", Type: ColUint64},
				{Name: "name", Type: ColString},
				{Name: "val", Type: ColFloat64},
				{Name: "group", Type: ColInt64},
			},
			UniqueIndexes: []string{"name"},
			MultiIndexes:  []string{"group"},
		},
		{
			Name: "ref",
			Columns: []Column{
				{Name: "id", Type: ColUint64},
				{Name: "key", Type: ColUint64},
			},
			UniqueIndexes: []string{"key"},
		},
	}
}

func kvRow(i int) Row {
	return Row{uint64(0), fmt.Sprintf("row-%04d", i), float64(i) * 1.5, int64(i % 3)}
}

// dumpTables renders the full database contents for equality checks.
func dumpTables(t *testing.T, d *Database) map[string][]Row {
	t.Helper()
	out := make(map[string][]Row)
	for name := range d.tables {
		tbl, err := d.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		tbl.Scan(func(r Row) bool {
			out[name] = append(out[name], r)
			return true
		})
	}
	return out
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestCheckpointReopenReconstructs is the acceptance scenario: contents
// after Checkpoint + more writes must survive a reopen via snapshot + WAL
// tail, with the WAL actually truncated by the checkpoint.
func TestCheckpointReopenReconstructs(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenWith(dir, engineSchemas(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for i := 0; i < 60; i++ {
		id, err := d.Insert("kv", kvRow(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < 10; i++ {
		if _, err := d.Insert("ref", Row{uint64(0), uint64(1000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Delete a few, including the max-id kv row (its id must not be reused
	// after reopen), through the only path that still deletes durably: WAL
	// delete records replayed on open.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	appendWALDeletes(t, dir, "kv", ids[3], ids[10], ids[len(ids)-1])
	d, err = OpenWith(dir, engineSchemas(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}

	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, filepath.Join(dir, walFile)); got != 0 {
		t.Fatalf("wal not truncated by checkpoint: %d bytes", got)
	}
	if _, err := os.Stat(filepath.Join(dir, snapFile)); err != nil {
		t.Fatalf("no snapshot file after checkpoint: %v", err)
	}
	if st := d.EngineStats(); st.Checkpoints != 1 || st.WALRecords != 0 {
		t.Fatalf("engine stats after checkpoint: %+v", st)
	}

	// WAL tail on top of the snapshot.
	for i := 100; i < 120; i++ {
		if _, err := d.Insert("kv", kvRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := fileSize(t, filepath.Join(dir, walFile)); got == 0 {
		t.Fatal("post-checkpoint inserts wrote no WAL tail")
	}
	want := dumpTables(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenWith(dir, engineSchemas(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := dumpTables(t, d2); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopen mismatch:\n got %v\nwant %v", got, want)
	}
	// The deleted max id must not be handed out again.
	id, err := d2.Insert("kv", kvRow(999))
	if err != nil {
		t.Fatal(err)
	}
	if id <= ids[len(ids)-1] {
		t.Fatalf("pk %d reused after reopen (deleted max was %d)", id, ids[len(ids)-1])
	}
}

// TestWALTornTailTruncated corrupts the WAL tail the way a crash
// mid-append does; Open must keep every intact record, truncate the tear,
// and leave a log that appends and replays cleanly afterwards.
func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenWith(dir, engineSchemas(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := d.Insert("kv", kvRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Append half of a valid record: a crash tore the tail.
	walPath := filepath.Join(dir, walFile)
	rec := encodeWALRecord(walInsert, "kv", encodeRow(Row{uint64(77), "torn", 1.0, int64(0)}))
	intact := fileSize(t, walPath)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec[:len(rec)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d2, err := OpenWith(dir, engineSchemas(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	kv, _ := d2.Table("kv")
	if kv.Len() != 5 {
		t.Fatalf("torn-tail replay kept %d rows, want 5", kv.Len())
	}
	if got := fileSize(t, walPath); got != intact {
		t.Fatalf("torn tail not truncated: %d bytes, want %d", got, intact)
	}
	// The healed log keeps working across another append + reopen.
	if _, err := d2.Insert("kv", kvRow(5)); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	d3, err := OpenWith(dir, engineSchemas(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	kv3, _ := d3.Table("kv")
	if kv3.Len() != 6 {
		t.Fatalf("post-heal replay kept %d rows, want 6", kv3.Len())
	}
}

// TestRecoverInterruptedCheckpoint covers Checkpoint's crash windows: an
// .old WAL generation left on disk (crash before the snapshot landed) and
// a WAL generation whose records the snapshot already contains (crash
// after the rename, before .old removal). Both must replay idempotently.
func TestRecoverInterruptedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenWith(dir, engineSchemas(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := d.Insert("kv", kvRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := dumpTables(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash window 1: WAL renamed to .old, fresh WAL open, no snapshot yet.
	walPath := filepath.Join(dir, walFile)
	oldPath := filepath.Join(dir, walOldFile)
	if err := os.Rename(walPath, oldPath); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenWith(dir, engineSchemas(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatalf("open with interrupted checkpoint: %v", err)
	}
	if got := dumpTables(t, d2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovery mismatch:\n got %v\nwant %v", got, want)
	}
	if _, err := os.Stat(oldPath); !os.IsNotExist(err) {
		t.Fatal("interrupted checkpoint not healed: wal.old still present")
	}
	if _, err := os.Stat(filepath.Join(dir, snapFile)); err != nil {
		t.Fatalf("healing wrote no snapshot: %v", err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash window 2: snapshot in place, .old still contains records the
	// snapshot covers — replaying them again must be a no-op.
	dup := encodeWALRecord(walInsert, "kv", encodeRow(want["kv"][0]))
	if err := os.WriteFile(oldPath, dup, 0o644); err != nil {
		t.Fatal(err)
	}
	d3, err := OpenWith(dir, engineSchemas(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatalf("open with duplicate wal.old: %v", err)
	}
	defer d3.Close()
	if got := dumpTables(t, d3); !reflect.DeepEqual(got, want) {
		t.Fatalf("idempotent replay mismatch:\n got %v\nwant %v", got, want)
	}
}

// TestSnapshotIsolation: a snapshot never sees commits that happen after
// it was taken, while the live tables do.
func TestSnapshotIsolation(t *testing.T) {
	d, err := OpenWith("", engineSchemas(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 10; i++ {
		if _, err := d.Insert("kv", kvRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := d.Snapshot()
	st, err := snap.Table("kv")
	if err != nil {
		t.Fatal(err)
	}

	late, err := d.Insert("kv", kvRow(10))
	if err != nil {
		t.Fatal(err)
	}
	live, _ := d.Table("kv")
	if !live.Delete(1) {
		t.Fatal("delete of row 1 found nothing")
	}

	n := 0
	st.Scan(func(Row) bool { n++; return true })
	if n != 10 {
		t.Fatalf("snapshot saw later writes: len %d, want 10", n)
	}
	if _, ok := st.Get(1); !ok {
		t.Fatal("snapshot lost a row deleted after it was taken")
	}
	if _, ok := st.Get(late); ok {
		t.Fatal("snapshot sees a row inserted after it was taken")
	}
	if got := len(st.FindMulti("group", int64(0))); got != 4 {
		t.Fatalf("snapshot multi-index drifted: %d, want 4", got)
	}
	if live.Len() != 10 { // 10 + 1 insert - 1 delete
		t.Fatalf("live table len %d, want 10", live.Len())
	}
	if _, ok := live.FindUnique("name", "row-0010"); !ok {
		t.Fatal("live table missing post-snapshot insert")
	}
}

// TestEngineConcurrency drives inserts, index reads, snapshot scans and
// checkpoints concurrently (run under -race via `make race`): snapshot
// scans must not block writers, checkpoints must not lose records.
func TestEngineConcurrency(t *testing.T) {
	dir := t.TempDir()
	// Tight record threshold so auto-checkpoints also fire mid-run.
	d, err := OpenWith(dir, engineSchemas(), Options{Sync: SyncNever, CheckpointRecords: 64})
	if err != nil {
		t.Fatal(err)
	}

	const writers, perWriter = 8, 40
	var wg, readers sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				row := Row{uint64(0), fmt.Sprintf("w%d-%04d", w, i), float64(i), int64(w)}
				if _, err := d.Insert("kv", row); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}(w)
	}
	// Index readers.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			kv, _ := d.Table("kv")
			for {
				select {
				case <-stop:
					return
				default:
				}
				kv.FindUnique("name", "w0-0000")
				kv.Snapshot().FindMulti("group", int64(1))
				// Yield between probes: an unpaced lock-acquire spin loop
				// starves the mutex handoff chain on GOMAXPROCS=1.
				runtime.Gosched()
			}
		}()
	}
	// Snapshot scanners: each scan must observe an internally consistent
	// monotone prefix of the insert stream.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			kv, _ := d.Table("kv")
			prev := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := 0
				kv.SnapshotScan(func(Row) bool { n++; return true })
				if n < prev {
					t.Errorf("snapshot scan went backwards: %d after %d", n, prev)
					return
				}
				prev = n
				runtime.Gosched()
			}
		}()
	}
	// Explicit checkpoints while writing.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if err := d.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()

	// Stop the readers once the writers (and checkpointer) are done.
	wg.Wait()
	close(stop)
	readers.Wait()

	kv, _ := d.Table("kv")
	if kv.Len() != writers*perWriter {
		t.Fatalf("lost rows under concurrency: %d, want %d", kv.Len(), writers*perWriter)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenWith(dir, engineSchemas(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	kv2, _ := d2.Table("kv")
	if kv2.Len() != writers*perWriter {
		t.Fatalf("reopen after concurrent run lost rows: %d, want %d", kv2.Len(), writers*perWriter)
	}
}

// TestSyncPolicyCounters: SyncAlways fsyncs per commit batch, SyncNever
// not at all (until close/rotate); group commit counters add up.
func TestSyncPolicyCounters(t *testing.T) {
	for _, tc := range []struct {
		policy     SyncPolicy
		wantFsyncs bool
	}{{SyncAlways, true}, {SyncNever, false}} {
		d, err := OpenWith(t.TempDir(), engineSchemas(), Options{Sync: tc.policy})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, err := d.Insert("kv", kvRow(i)); err != nil {
				t.Fatal(err)
			}
		}
		st := d.EngineStats()
		if st.CommitRecords != 10 || st.WALRecords != 10 {
			t.Fatalf("policy %v: commit records %+v, want 10", tc.policy, st)
		}
		if st.CommitBatches < 1 || st.CommitBatches > 10 {
			t.Fatalf("policy %v: batches %d out of range", tc.policy, st.CommitBatches)
		}
		if tc.wantFsyncs && st.Fsyncs < st.CommitBatches {
			t.Fatalf("SyncAlways: %d fsyncs < %d batches", st.Fsyncs, st.CommitBatches)
		}
		if !tc.wantFsyncs && st.Fsyncs != 0 {
			t.Fatalf("SyncNever: %d fsyncs, want 0", st.Fsyncs)
		}
		if st.WALBytes <= 0 {
			t.Fatalf("policy %v: WALBytes %d", tc.policy, st.WALBytes)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALFormatCompatible: a WAL written record-by-record in the
// pre-group-commit layout (which encodeWALRecord preserves) replays.
func TestWALFormatCompatible(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	buf.Write(encodeWALRecord(walInsert, "kv", encodeRow(Row{uint64(1), "a", 1.0, int64(0)})))
	buf.Write(encodeWALRecord(walInsert, "kv", encodeRow(Row{uint64(2), "b", 2.0, int64(1)})))
	buf.Write(encodeWALRecord(walDelete, "kv", encodeRow(Row{uint64(1)})))
	if err := os.WriteFile(filepath.Join(dir, walFile), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenWith(dir, engineSchemas(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	kv, _ := d.Table("kv")
	if kv.Len() != 1 {
		t.Fatalf("replay kept %d rows, want 1", kv.Len())
	}
	if _, ok := kv.FindUnique("name", "b"); !ok {
		t.Fatal("surviving row missing")
	}
}

// appendWALDeletes appends raw delete records (WAL op 2) for ids to the WAL
// of the closed database in dir.
func appendWALDeletes(t *testing.T, dir, table string, ids ...uint64) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if _, err := f.Write(encodeWALRecord(walDelete, table, encodeRow(Row{id}))); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALReplaysDeleteRecord: a delete record appended to a WAL that Insert
// wrote removes exactly its row on reopen. Nothing in this package writes
// op 2, but directories written by older binaries hold such records and must
// still open with their rows gone.
func TestWALReplaysDeleteRecord(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenWith(dir, engineSchemas(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for i := 0; i < 5; i++ {
		id, err := d.Insert("kv", kvRow(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	want := dumpTables(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	appendWALDeletes(t, dir, "kv", ids[2])

	d2, err := OpenWith(dir, engineSchemas(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	want["kv"] = append(want["kv"][:2:2], want["kv"][3:]...)
	if got := dumpTables(t, d2); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after delete record:\n got %v\nwant %v", got, want)
	}
}

// TestTrainingSnapshotFrozen: the training set handed out by the store is
// immune to concurrent inserts.
func TestTrainingSnapshotFrozen(t *testing.T) {
	s, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p, err := s.InsertPlatform("plat-a", "hw", "sw", "fp32")
	if err != nil {
		t.Fatal(err)
	}
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	m, err := s.InsertModel(g)
	if err != nil {
		t.Fatal(err)
	}
	for b := 1; b <= 4; b++ {
		if _, err := s.InsertLatency(LatencyRecord{ModelID: m.ID, PlatformID: p.ID, BatchSize: b, LatencyMS: float64(b)}); err != nil {
			t.Fatal(err)
		}
	}
	ts, err := s.TrainingSnapshot(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Records) != 4 {
		t.Fatalf("training set has %d records, want 4", len(ts.Records))
	}
	if _, ok := ts.Model(m.ID); !ok {
		t.Fatal("training set missing referenced model")
	}
	// Records arrive in insertion order.
	for i, rec := range ts.Records {
		if rec.BatchSize != i+1 {
			t.Fatalf("records out of order: %+v", ts.Records)
		}
	}
	// Later inserts don't leak in.
	if _, err := s.InsertLatency(LatencyRecord{ModelID: m.ID, PlatformID: p.ID, BatchSize: 9, LatencyMS: 9}); err != nil {
		t.Fatal(err)
	}
	if len(ts.Records) != 4 {
		t.Fatal("training set mutated by a later insert")
	}
	ts2, err := s.TrainingSnapshot(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts2.Records) != 5 {
		t.Fatalf("fresh snapshot has %d records, want 5", len(ts2.Records))
	}
}
