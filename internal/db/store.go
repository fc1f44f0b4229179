package db

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"nnlqp/internal/graphhash"
	"nnlqp/internal/onnx"
)

// Store is the NNLQ-specific layer over Database implementing the paper's
// ER diagram (Fig. 4): a model table (weight-free ONNX + 8-byte graph hash),
// a platform table (hardware, software, data type), and a latency table
// keyed by (model id, platform id) foreign keys with batch size, latency
// cost and memory figures.
type Store struct {
	db *Database
}

// Table and column names of the ER schema.
const (
	TableModel    = "model"
	TablePlatform = "platform"
	TableLatency  = "latency"
)

// Schemas returns the three-table NNLQ schema.
func Schemas() []Schema {
	return []Schema{
		{
			Name: TableModel,
			Columns: []Column{
				{Name: "id", Type: ColUint64},
				{Name: "graph_hash", Type: ColUint64},
				{Name: "name", Type: ColString},
				{Name: "family", Type: ColString},
				{Name: "onnx", Type: ColBytes}, // weight-free binary encoding
			},
			UniqueIndexes: []string{"graph_hash"},
		},
		{
			Name: TablePlatform,
			Columns: []Column{
				{Name: "id", Type: ColUint64},
				{Name: "name", Type: ColString},
				{Name: "hardware", Type: ColString},
				{Name: "software", Type: ColString},
				{Name: "data_type", Type: ColString},
			},
			UniqueIndexes: []string{"name"},
		},
		{
			Name: TableLatency,
			Columns: []Column{
				{Name: "id", Type: ColUint64},
				{Name: "model_id", Type: ColUint64},    // FK -> model.id
				{Name: "platform_id", Type: ColUint64}, // FK -> platform.id
				{Name: "batch_size", Type: ColInt64},
				{Name: "latency_ms", Type: ColFloat64},
				{Name: "runs", Type: ColInt64},
				{Name: "peak_mem_bytes", Type: ColInt64},
				{Name: "lookup_key", Type: ColString}, // model|platform|batch
			},
			UniqueIndexes: []string{"lookup_key"},
			MultiIndexes:  []string{"model_id", "platform_id"},
		},
	}
}

// OpenStore opens (or creates) an NNLQ store at dir ("" = in-memory) with
// default engine Options.
func OpenStore(dir string) (*Store, error) {
	return OpenStoreWith(dir, Options{})
}

// OpenStoreWith is OpenStore with explicit storage-engine Options
// (SyncPolicy, checkpoint thresholds).
func OpenStoreWith(dir string, opts Options) (*Store, error) {
	d, err := OpenWith(dir, Schemas(), opts)
	if err != nil {
		return nil, err
	}
	return &Store{db: d}, nil
}

// Close closes the underlying database.
func (s *Store) Close() error { return s.db.Close() }

// Checkpoint snapshots the database and truncates the WAL (no-op for
// in-memory stores). See Database.Checkpoint.
func (s *Store) Checkpoint() error { return s.db.Checkpoint() }

// EngineStats exposes the storage engine counters.
func (s *Store) EngineStats() EngineStats { return s.db.EngineStats() }

// DB exposes the underlying database (for tooling and tests).
func (s *Store) DB() *Database { return s.db }

// ModelRecord is a decoded model-table row.
type ModelRecord struct {
	ID     uint64
	Hash   graphhash.Key
	Name   string
	Family string
	Graph  *onnx.Graph
}

// PlatformRecord is a decoded platform-table row.
type PlatformRecord struct {
	ID       uint64
	Name     string
	Hardware string
	Software string
	DataType string
}

// LatencyRecord is a decoded latency-table row.
type LatencyRecord struct {
	ID           uint64
	ModelID      uint64
	PlatformID   uint64
	BatchSize    int
	LatencyMS    float64
	Runs         int
	PeakMemBytes int64
}

func latencyKey(modelID, platformID uint64, batch int) string {
	return string(appendLatencyKey(nil, modelID, platformID, batch))
}

// appendLatencyKey renders the latency lookup key ("model|platform|batch")
// into dst, byte-identical to latencyKey but without forcing a heap string —
// the point-read path renders into a stack buffer.
func appendLatencyKey(dst []byte, modelID, platformID uint64, batch int) []byte {
	dst = strconv.AppendUint(dst, modelID, 10)
	dst = append(dst, '|')
	dst = strconv.AppendUint(dst, platformID, 10)
	dst = append(dst, '|')
	return strconv.AppendInt(dst, int64(batch), 10)
}

// InsertModel stores a model (idempotently: an existing graph hash returns
// the existing record).
func (s *Store) InsertModel(g *onnx.Graph) (*ModelRecord, error) {
	key, err := graphhash.GraphKey(g)
	if err != nil {
		return nil, err
	}
	if rec, ok, err := s.FindModelByHash(key); err != nil {
		return nil, err
	} else if ok {
		return rec, nil
	}
	data, err := g.EncodeBinary()
	if err != nil {
		return nil, err
	}
	id, err := s.db.Insert(TableModel, Row{uint64(0), uint64(key), g.Name, g.Family, data})
	if err != nil {
		return nil, err
	}
	return &ModelRecord{ID: id, Hash: key, Name: g.Name, Family: g.Family, Graph: g}, nil
}

// FindModelByHash retrieves a model by graph hash.
func (s *Store) FindModelByHash(key graphhash.Key) (*ModelRecord, bool, error) {
	t, err := s.db.Table(TableModel)
	if err != nil {
		return nil, false, err
	}
	row, ok := t.FindUnique("graph_hash", uint64(key))
	if !ok {
		return nil, false, nil
	}
	return decodeModelRow(row)
}

// ModelIDByHash resolves a graph hash to its model primary key without
// materializing the record. FindModelByHash decodes the stored ONNX binary —
// hundreds of allocations for a typical graph — which the serving path's
// (model, platform, batch) probe never needs; this reads only the id column
// in place.
func (s *Store) ModelIDByHash(key graphhash.Key) (uint64, bool, error) {
	t, err := s.db.Table(TableModel)
	if err != nil {
		return 0, false, err
	}
	var id uint64
	ok := t.ViewUniqueUint64("graph_hash", uint64(key), func(row Row) { id = row[0].(uint64) })
	return id, ok, nil
}

// GetModel retrieves a model by primary key.
func (s *Store) GetModel(id uint64) (*ModelRecord, bool, error) {
	t, err := s.db.Table(TableModel)
	if err != nil {
		return nil, false, err
	}
	row, ok := t.Get(id)
	if !ok {
		return nil, false, nil
	}
	return decodeModelRow(row)
}

func decodeModelRow(row Row) (*ModelRecord, bool, error) {
	g, err := onnx.DecodeBinary(row[4].([]byte))
	if err != nil {
		return nil, false, fmt.Errorf("db: stored model corrupt: %w", err)
	}
	return &ModelRecord{
		ID:     row[0].(uint64),
		Hash:   graphhash.Key(row[1].(uint64)),
		Name:   row[2].(string),
		Family: row[3].(string),
		Graph:  g,
	}, true, nil
}

// InsertPlatform registers a platform, or returns the row already stored
// under name: an atomic insert-or-get. Two first-ever concurrent callers both
// miss the lookup; the unique index lets one insert through, and the other
// reads the winner's row instead of failing. It loops rather than reads once
// because a winner whose WAL commit fails is rolled back, and the name is
// free again.
func (s *Store) InsertPlatform(name, hardware, software, dataType string) (*PlatformRecord, error) {
	for {
		if rec, ok, err := s.FindPlatformByName(name); err != nil || ok {
			return rec, err
		}
		id, err := s.db.Insert(TablePlatform, Row{uint64(0), name, hardware, software, dataType})
		var taken *UniqueViolationError
		if errors.As(err, &taken) {
			continue
		}
		if err != nil {
			return nil, err
		}
		return &PlatformRecord{ID: id, Name: name, Hardware: hardware, Software: software, DataType: dataType}, nil
	}
}

// FindPlatformByName retrieves a platform record by its canonical name.
func (s *Store) FindPlatformByName(name string) (*PlatformRecord, bool, error) {
	t, err := s.db.Table(TablePlatform)
	if err != nil {
		return nil, false, err
	}
	row, ok := t.FindUnique("name", name)
	if !ok {
		return nil, false, nil
	}
	return &PlatformRecord{
		ID: row[0].(uint64), Name: row[1].(string), Hardware: row[2].(string),
		Software: row[3].(string), DataType: row[4].(string),
	}, true, nil
}

// PlatformIDByName resolves a platform name to its primary key without
// materializing the record (the serving path caches the id and only needs
// the resolution once per platform anyway).
func (s *Store) PlatformIDByName(name string) (uint64, bool, error) {
	t, err := s.db.Table(TablePlatform)
	if err != nil {
		return 0, false, err
	}
	var id uint64
	ok := t.ViewUniqueString("name", name, func(row Row) { id = row[0].(uint64) })
	return id, ok, nil
}

// Platforms returns every platform record, ordered by primary key, from a
// point-in-time snapshot (the retrainer uses it to discover which platforms
// have accumulated knowledge without holding any lock while decoding).
func (s *Store) Platforms() ([]PlatformRecord, error) {
	t, err := s.db.Table(TablePlatform)
	if err != nil {
		return nil, err
	}
	var out []PlatformRecord
	t.SnapshotScan(func(row Row) bool {
		out = append(out, PlatformRecord{
			ID: row[0].(uint64), Name: row[1].(string), Hardware: row[2].(string),
			Software: row[3].(string), DataType: row[4].(string),
		})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// LatencyCount reports how many latency records a platform has accumulated —
// the cheap signal the retrainer's new-measurement drift trigger polls.
func (s *Store) LatencyCount(platformID uint64) (int, error) {
	t, err := s.db.Table(TableLatency)
	if err != nil {
		return 0, err
	}
	return len(t.Snapshot().FindMulti("platform_id", platformID)), nil
}

// RecentLatencies returns the platform's n most recent latency records
// (insertion order = primary key order), newest last. The retrainer's
// rolling-MAPE drift trigger scores the live predictor against exactly this
// window.
func (s *Store) RecentLatencies(platformID uint64, n int) ([]LatencyRecord, error) {
	recs, err := s.LatenciesForPlatform(platformID)
	if err != nil {
		return nil, err
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	if n > 0 && len(recs) > n {
		recs = recs[len(recs)-n:]
	}
	return recs, nil
}

// InsertLatency stores one latency measurement; duplicate
// (model, platform, batch) keys are rejected (the cache already has them).
func (s *Store) InsertLatency(rec LatencyRecord) (uint64, error) {
	return s.db.Insert(TableLatency, Row{
		uint64(0), rec.ModelID, rec.PlatformID, int64(rec.BatchSize),
		rec.LatencyMS, int64(rec.Runs), rec.PeakMemBytes,
		latencyKey(rec.ModelID, rec.PlatformID, rec.BatchSize),
	})
}

// FindLatency retrieves the latency record for (model, platform, batch).
func (s *Store) FindLatency(modelID, platformID uint64, batch int) (*LatencyRecord, bool, error) {
	t, err := s.db.Table(TableLatency)
	if err != nil {
		return nil, false, err
	}
	row, ok := t.FindUnique("lookup_key", latencyKey(modelID, platformID, batch))
	if !ok {
		return nil, false, nil
	}
	return decodeLatencyRow(row), true, nil
}

// LatencyValue is FindLatency by value: the lookup key is rendered into a
// stack buffer and the row decoded in place under the table read-lock, so
// the steady-state point read — the single-row probe every L1 miss performs —
// allocates nothing.
func (s *Store) LatencyValue(modelID, platformID uint64, batch int) (LatencyRecord, bool, error) {
	t, err := s.db.Table(TableLatency)
	if err != nil {
		return LatencyRecord{}, false, err
	}
	var buf [48]byte // fits two uint64s, an int64 and two separators
	key := appendLatencyKey(buf[:0], modelID, platformID, batch)
	var rec LatencyRecord
	ok := t.ViewUniqueKey("lookup_key", key, func(row Row) {
		rec = LatencyRecord{
			ID:           row[0].(uint64),
			ModelID:      row[1].(uint64),
			PlatformID:   row[2].(uint64),
			BatchSize:    int(row[3].(int64)),
			LatencyMS:    row[4].(float64),
			Runs:         int(row[5].(int64)),
			PeakMemBytes: row[6].(int64),
		}
	})
	return rec, ok, nil
}

// LatenciesForPlatform returns every latency record for a platform, read
// from a point-in-time snapshot so a long decode never blocks writers.
func (s *Store) LatenciesForPlatform(platformID uint64) ([]LatencyRecord, error) {
	t, err := s.db.Table(TableLatency)
	if err != nil {
		return nil, err
	}
	return decodeLatencyRows(t.Snapshot().FindMulti("platform_id", platformID)), nil
}

// LatenciesForModel returns every latency record for a model.
func (s *Store) LatenciesForModel(modelID uint64) ([]LatencyRecord, error) {
	t, err := s.db.Table(TableLatency)
	if err != nil {
		return nil, err
	}
	return decodeLatencyRows(t.Snapshot().FindMulti("model_id", modelID)), nil
}

func decodeLatencyRows(rows []Row) []LatencyRecord {
	out := make([]LatencyRecord, 0, len(rows))
	for _, r := range rows {
		out = append(out, *decodeLatencyRow(r))
	}
	return out
}

// TrainingSet is a frozen view of the accumulated latency knowledge of one
// or more platforms: the latency records plus every model they reference,
// each decoded once, from one consistent snapshot. Serving-path writers keep
// inserting while a trainer consumes it; the set never changes underneath
// them.
type TrainingSet struct {
	Records []LatencyRecord
	models  map[uint64]*ModelRecord
}

// Model resolves a latency record's model from the frozen set.
func (ts *TrainingSet) Model(id uint64) (*ModelRecord, bool) {
	m, ok := ts.models[id]
	return m, ok
}

// TrainingSnapshot hands the predictor trainers a frozen latency set for
// the given platforms (the paper's retraining loop reads the evolving
// database while the query path keeps growing it; the snapshot keeps the two
// from racing). Records come platform by platform in argument order, each
// platform's ordered by insertion (primary key), so repeated snapshots of an
// unchanged database yield identical training sets.
func (s *Store) TrainingSnapshot(platformIDs ...uint64) (*TrainingSet, error) {
	snap := s.db.Snapshot()
	lt, err := snap.Table(TableLatency)
	if err != nil {
		return nil, err
	}
	mt, err := snap.Table(TableModel)
	if err != nil {
		return nil, err
	}
	ts := &TrainingSet{models: make(map[uint64]*ModelRecord)}
	for _, id := range platformIDs {
		recs := decodeLatencyRows(lt.FindMulti("platform_id", id))
		sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
		ts.Records = append(ts.Records, recs...)
	}
	for _, rec := range ts.Records {
		if _, done := ts.models[rec.ModelID]; done {
			continue
		}
		row, ok := mt.Get(rec.ModelID)
		if !ok {
			return nil, fmt.Errorf("db: latency record %d references missing model %d", rec.ID, rec.ModelID)
		}
		m, _, err := decodeModelRow(row)
		if err != nil {
			return nil, err
		}
		ts.models[rec.ModelID] = m
	}
	return ts, nil
}

// RecordMeasurement is Record without the duplicate report.
func (s *Store) RecordMeasurement(g *onnx.Graph, platformID uint64, rec LatencyRecord) (modelID uint64, latencyMS float64, err error) {
	modelID, latencyMS, _, err = s.Record(g, platformID, rec)
	return modelID, latencyMS, err
}

// Record persists a fresh measurement — the model row (idempotent on graph
// hash) and its latency row — through the group commit path. A concurrent
// writer winning the (model, platform, batch) unique-key race is reconciled
// by adopting the stored record and reported as dup; the returned latency
// is authoritative either way.
func (s *Store) Record(g *onnx.Graph, platformID uint64, rec LatencyRecord) (modelID uint64, latencyMS float64, dup bool, err error) {
	mrec, err := s.InsertModel(g)
	if err != nil {
		return 0, 0, false, err
	}
	rec.ModelID = mrec.ID
	rec.PlatformID = platformID
	_, err = s.InsertLatency(rec)
	var uv *UniqueViolationError
	if errors.As(err, &uv) {
		stored, ok, rerr := s.FindLatency(mrec.ID, platformID, rec.BatchSize)
		if rerr != nil {
			return mrec.ID, 0, true, rerr
		}
		if ok {
			return mrec.ID, stored.LatencyMS, true, nil
		}
		return mrec.ID, rec.LatencyMS, true, nil
	}
	if err != nil {
		return mrec.ID, 0, false, err
	}
	return mrec.ID, rec.LatencyMS, false, nil
}

func decodeLatencyRow(row Row) *LatencyRecord {
	return &LatencyRecord{
		ID:           row[0].(uint64),
		ModelID:      row[1].(uint64),
		PlatformID:   row[2].(uint64),
		BatchSize:    int(row[3].(int64)),
		LatencyMS:    row[4].(float64),
		Runs:         int(row[5].(int64)),
		PeakMemBytes: row[6].(int64),
	}
}

// Counts reports table cardinalities (the "63 platform records, 200k+ model
// records and 700k+ latency records" figure of §8.2).
func (s *Store) Counts() (models, platforms, latencies int) {
	mt, _ := s.db.Table(TableModel)
	pt, _ := s.db.Table(TablePlatform)
	lt, _ := s.db.Table(TableLatency)
	return mt.Len(), pt.Len(), lt.Len()
}

// StorageBytes reports total encoded storage.
func (s *Store) StorageBytes() int64 { return s.db.TotalStorageBytes() }
