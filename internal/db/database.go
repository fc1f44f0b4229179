package db

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Database is a set of tables with optional write-ahead-log durability,
// organized as a small concurrent storage engine:
//
//   - Writers take only their table's commit lock while applying a
//     mutation and enqueueing its WAL record; the WAL itself is written by
//     a group committer that batches concurrent records into one flush
//     (+ fsync under SyncAlways), so WAL I/O never runs under a table lock
//     and independent tables commit fully in parallel.
//   - Checkpoint writes a compact snapshot file and rotates the WAL, so
//     replay cost and log size stay bounded; checkpoints trigger
//     automatically past size/record thresholds (Options) and on demand.
//   - Snapshot returns a consistent copy-on-write view across all tables;
//     scans on it never block writers and never see later commits.
//
// OpenWith replays snapshot + WAL to reconstruct state, so the database
// "evolves" across process lifetimes exactly as the paper's MySQL store
// accumulates latency knowledge over time.
type Database struct {
	tables map[string]*Table
	names  []string // sorted; fixes the commit-lock acquisition order
	wal    *walCommitter
	dir    string
	opts   Options

	ckptMu      sync.Mutex  // serializes checkpoints against each other and Close
	ckptPending atomic.Bool // an auto-checkpoint goroutine is scheduled
	closed      atomic.Bool

	checkpoints atomic.Int64
	lastCkpt    atomic.Int64 // unix nanos of the last durable snapshot; 0 = never
}

// Options tune the storage engine. The zero value means: fsync every
// commit batch, auto-checkpoint past 4 MiB of WAL or 50k records.
type Options struct {
	// Sync selects WAL durability (default SyncAlways).
	Sync SyncPolicy
	// CheckpointWALBytes auto-checkpoints when the WAL exceeds this size.
	// 0 = default (4 MiB); negative disables the size trigger.
	CheckpointWALBytes int64
	// CheckpointRecords auto-checkpoints after this many WAL records.
	// 0 = default (50000); negative disables the record trigger.
	CheckpointRecords int64
}

const (
	defaultCheckpointWALBytes = 4 << 20
	defaultCheckpointRecords  = 50000
)

func (o Options) withDefaults() Options {
	if o.CheckpointWALBytes == 0 {
		o.CheckpointWALBytes = defaultCheckpointWALBytes
	}
	if o.CheckpointRecords == 0 {
		o.CheckpointRecords = defaultCheckpointRecords
	}
	return o
}

// OpenWith creates or reopens a database at dir with the given engine
// Options (zero values select the defaults). Pass "" for a purely in-memory
// database (tests, ephemeral tooling). Schemas must be registered before
// replay inserts rows into them, so OpenWith takes the full schema set up
// front.
func OpenWith(dir string, schemas []Schema, opts Options) (*Database, error) {
	d := &Database{tables: make(map[string]*Table), dir: dir, opts: opts.withDefaults()}
	for _, s := range schemas {
		t, err := NewTable(s)
		if err != nil {
			return nil, err
		}
		d.tables[s.Name] = t
		d.names = append(d.names, s.Name)
	}
	sort.Strings(d.names)
	if dir == "" {
		return d, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := d.recover(); err != nil {
		return nil, err
	}
	w, err := newWALCommitter(filepath.Join(dir, walFile), d.opts.Sync)
	if err != nil {
		return nil, err
	}
	w.onThreshold = d.onCommitThreshold
	d.wal = w
	if st, err := os.Stat(filepath.Join(dir, snapFile)); err == nil {
		d.lastCkpt.Store(st.ModTime().UnixNano())
	}
	return d, nil
}

// recover reconstructs state from disk: snapshot, then the .old WAL
// generation a crashed checkpoint may have left behind, then the current
// WAL — all idempotent, so every crash window of Checkpoint replays to the
// same contents. An interrupted checkpoint is then healed by completing it
// synchronously (fresh snapshot, .old removed).
func (d *Database) recover() error {
	if err := d.loadSnapshotFile(d.dir); err != nil {
		return err
	}
	oldPath := filepath.Join(d.dir, walOldFile)
	_, hadOld := fileExists(oldPath)
	if hadOld {
		if err := d.replayWAL(oldPath); err != nil {
			return err
		}
	}
	if err := d.replayWAL(filepath.Join(d.dir, walFile)); err != nil {
		return err
	}
	if hadOld {
		if err := writeSnapshotFile(d.dir, d.snapshotLocked()); err != nil {
			return fmt.Errorf("db: healing interrupted checkpoint: %w", err)
		}
		if err := os.Remove(oldPath); err != nil {
			return err
		}
	}
	return nil
}

func fileExists(path string) (int64, bool) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, false
	}
	return st.Size(), true
}

// Table returns a table by name.
func (d *Database) Table(name string) (*Table, error) {
	t, ok := d.tables[name]
	if !ok {
		return nil, fmt.Errorf("db: no table %q", name)
	}
	return t, nil
}

// Insert appends a row to the named table. When WAL-backed it returns only
// after the record's commit batch is durable per the SyncPolicy; the
// in-memory apply happens under the table's commit lock, the WAL I/O does
// not — concurrent inserts (same table or not) share one group commit.
func (d *Database) Insert(table string, row Row) (uint64, error) {
	t, err := d.Table(table)
	if err != nil {
		return 0, err
	}
	t.commit.Lock()
	id, err := t.Insert(row)
	if err != nil {
		t.commit.Unlock()
		return 0, err
	}
	if d.wal == nil {
		t.commit.Unlock()
		return id, nil
	}
	full, _ := t.Get(id)
	req := d.wal.enqueue(walInsert, table, encodeRow(full))
	t.commit.Unlock()
	if err := d.wal.await(req); err != nil {
		// Roll back the in-memory insert to keep memory and disk agreeing.
		t.commit.Lock()
		t.Delete(id)
		t.commit.Unlock()
		return 0, fmt.Errorf("db: wal commit failed: %w", err)
	}
	return id, nil
}

// lockAllCommits takes every table's commit lock in sorted-name order and
// returns the unlock function. While held, no durable mutation can apply
// or enqueue, which is the consistency barrier snapshots and checkpoints
// are built on.
func (d *Database) lockAllCommits() func() {
	for _, name := range d.names {
		d.tables[name].commit.Lock()
	}
	return func() {
		for _, name := range d.names {
			d.tables[name].commit.Unlock()
		}
	}
}

// snapshotLocked captures all tables; the caller guarantees quiescence
// (all commit locks held, or single-threaded recovery).
func (d *Database) snapshotLocked() *Snapshot {
	snap := &Snapshot{names: d.names, tables: make(map[string]*TableSnapshot, len(d.tables))}
	for _, name := range d.names {
		snap.tables[name] = d.tables[name].Snapshot()
	}
	return snap
}

// Snapshot returns a consistent copy-on-write view across all tables.
// Taking it briefly blocks writers (commit locks only — never WAL I/O);
// reading it never does.
func (d *Database) Snapshot() *Snapshot {
	unlock := d.lockAllCommits()
	defer unlock()
	return d.snapshotLocked()
}

// Checkpoint writes a compact snapshot of the whole database and truncates
// the WAL, bounding replay cost and reclaiming log space. Writers are
// blocked only while the engine takes the copy-on-write snapshot and
// rotates the log file; the snapshot itself is written to disk after they
// resume. In-memory databases treat it as a no-op.
//
// Crash safety: the old WAL generation is kept until the snapshot file is
// durably in place, and replay is idempotent over it, so a crash at any
// point reconstructs identical contents.
func (d *Database) Checkpoint() error {
	if d.wal == nil {
		return nil
	}
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	if d.closed.Load() {
		return fmt.Errorf("db: checkpoint on closed database")
	}

	unlock := d.lockAllCommits()
	snap := d.snapshotLocked()
	err := d.wal.rotate(d.dir)
	unlock()
	if err != nil {
		return fmt.Errorf("db: wal rotate: %w", err)
	}

	if err := writeSnapshotFile(d.dir, snap); err != nil {
		return fmt.Errorf("db: write snapshot: %w", err)
	}
	if err := os.Remove(filepath.Join(d.dir, walOldFile)); err != nil {
		return err
	}
	d.checkpoints.Add(1)
	d.lastCkpt.Store(time.Now().UnixNano())
	return nil
}

// onCommitThreshold runs after every successful commit batch; past the
// configured WAL size/record thresholds it schedules one background
// checkpoint (never more than one at a time).
func (d *Database) onCommitThreshold(walBytes, walRecords int64) {
	sizeHit := d.opts.CheckpointWALBytes > 0 && walBytes >= d.opts.CheckpointWALBytes
	recsHit := d.opts.CheckpointRecords > 0 && walRecords >= d.opts.CheckpointRecords
	if !sizeHit && !recsHit {
		return
	}
	if !d.ckptPending.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer d.ckptPending.Store(false)
		if d.closed.Load() {
			return
		}
		_ = d.Checkpoint()
	}()
}

// TotalStorageBytes sums encoded row sizes across tables (the "total
// database size" figure of §8.2).
func (d *Database) TotalStorageBytes() int64 {
	var total int64
	for _, t := range d.tables {
		total += t.StorageBytes()
	}
	return total
}

// EngineStats are the storage engine's operational counters.
type EngineStats struct {
	// CommitBatches / CommitRecords count group commits and the records
	// they carried; records/batches is the achieved batching factor.
	CommitBatches int64
	CommitRecords int64
	// Fsyncs counts File.Sync calls (SyncAlways: one per batch + rotations).
	Fsyncs int64
	// WALBytes / WALRecords describe the current WAL generation (reset by
	// checkpoints).
	WALBytes   int64
	WALRecords int64
	// Checkpoints counts completed checkpoints this process.
	Checkpoints int64
	// SnapshotAgeSec is the age of the on-disk snapshot file (seconds);
	// -1 when no checkpoint has ever completed.
	SnapshotAgeSec float64
}

// EngineStats returns a point-in-time copy of the engine counters.
// In-memory databases report zeros (with SnapshotAgeSec -1).
func (d *Database) EngineStats() EngineStats {
	st := EngineStats{SnapshotAgeSec: -1, Checkpoints: d.checkpoints.Load()}
	if last := d.lastCkpt.Load(); last > 0 {
		st.SnapshotAgeSec = time.Since(time.Unix(0, last)).Seconds()
	}
	if d.wal == nil {
		return st
	}
	d.wal.mu.Lock()
	st.CommitBatches = d.wal.batches
	st.CommitRecords = d.wal.totalRecords
	st.WALRecords = d.wal.records
	st.WALBytes = d.wal.walBytes
	st.Fsyncs = d.wal.fsyncs
	d.wal.mu.Unlock()
	return st
}

// Close flushes and closes the WAL. Concurrent mutations must have
// completed; a scheduled auto-checkpoint is allowed to finish first.
func (d *Database) Close() error {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	if d.closed.Swap(true) {
		return nil
	}
	if d.wal != nil {
		return d.wal.close()
	}
	return nil
}
