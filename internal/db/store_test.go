package db

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"nnlqp/internal/graphhash"
	"nnlqp/internal/models"
)

func TestStoreModelRoundTrip(t *testing.T) {
	s, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := models.BuildResNet(models.BaseResNet(1))
	rec, err := s.InsertModel(g)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Hash != graphhash.MustGraphKey(g) {
		t.Fatal("stored hash mismatch")
	}
	// Idempotent: same structure returns the same record.
	rec2, err := s.InsertModel(g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if rec2.ID != rec.ID {
		t.Fatalf("duplicate insert created new record: %d vs %d", rec2.ID, rec.ID)
	}
	// Retrieval by hash decodes the full graph.
	got, ok, err := s.FindModelByHash(rec.Hash)
	if err != nil || !ok {
		t.Fatalf("FindModelByHash: %v %v", ok, err)
	}
	if got.Graph.NumNodes() != g.NumNodes() {
		t.Fatal("stored graph truncated")
	}
	if _, ok, _ := s.FindModelByHash(graphhash.Key(12345)); ok {
		t.Fatal("phantom hash hit")
	}
	got2, ok, err := s.GetModel(rec.ID)
	if err != nil || !ok || got2.Name != g.Name {
		t.Fatalf("GetModel: %v %v %v", got2, ok, err)
	}
}

// TestRecordReportsDuplicate pins the store-and-reconcile step the query
// path's DuplicateMeasurements counter rests on: a second measurement of a
// stored (model, platform, batch) adopts the stored latency and reports dup;
// a new batch size is a fresh row.
func TestRecordReportsDuplicate(t *testing.T) {
	s, _ := OpenStore("")
	defer s.Close()
	p, err := s.InsertPlatform("gpu-T4-trt7.1-fp32", "T4", "trt7.1", "fp32")
	if err != nil {
		t.Fatal(err)
	}
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	for i, c := range []struct {
		batch   int
		latency float64
		wantLat float64
		wantDup bool
	}{
		{1, 3.5, 3.5, false},
		{1, 3.6, 3.5, true},
		{8, 20, 20, false},
	} {
		mid, lat, dup, err := s.Record(g, p.ID, LatencyRecord{BatchSize: c.batch, LatencyMS: c.latency})
		if err != nil || mid == 0 || lat != c.wantLat || dup != c.wantDup {
			t.Fatalf("record %d: Record = (%d, %v, %v, %v), want latency %v dup %v", i, mid, lat, dup, err, c.wantLat, c.wantDup)
		}
	}
	if nm, _, nl := s.Counts(); nm != 1 || nl != 2 {
		t.Fatalf("Counts = %d models, %d latencies; want 1, 2", nm, nl)
	}
}

func TestStorePlatformsAndLatencies(t *testing.T) {
	s, _ := OpenStore("")
	defer s.Close()
	p, err := s.InsertPlatform("gpu-T4-trt7.1-fp32", "T4", "trt7.1", "fp32")
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := s.InsertPlatform("gpu-T4-trt7.1-fp32", "T4", "trt7.1", "fp32")
	if p2.ID != p.ID {
		t.Fatal("platform insert not idempotent")
	}
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	m, _ := s.InsertModel(g)

	if _, err := s.InsertLatency(LatencyRecord{ModelID: m.ID, PlatformID: p.ID, BatchSize: 1, LatencyMS: 3.5, Runs: 50, PeakMemBytes: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	// Duplicate (model, platform, batch) rejected.
	if _, err := s.InsertLatency(LatencyRecord{ModelID: m.ID, PlatformID: p.ID, BatchSize: 1, LatencyMS: 3.6}); err == nil {
		t.Fatal("want duplicate-latency error")
	}
	// Different batch size is a different record.
	if _, err := s.InsertLatency(LatencyRecord{ModelID: m.ID, PlatformID: p.ID, BatchSize: 8, LatencyMS: 20}); err != nil {
		t.Fatal(err)
	}

	rec, ok, err := s.FindLatency(m.ID, p.ID, 1)
	if err != nil || !ok || rec.LatencyMS != 3.5 {
		t.Fatalf("FindLatency: %+v %v %v", rec, ok, err)
	}
	if _, ok, _ := s.FindLatency(m.ID, p.ID, 4); ok {
		t.Fatal("phantom latency hit")
	}
	byPlat, err := s.LatenciesForPlatform(p.ID)
	if err != nil || len(byPlat) != 2 {
		t.Fatalf("LatenciesForPlatform = %d, %v", len(byPlat), err)
	}
	byModel, err := s.LatenciesForModel(m.ID)
	if err != nil || len(byModel) != 2 {
		t.Fatalf("LatenciesForModel = %d, %v", len(byModel), err)
	}
	mc, pc, lc := s.Counts()
	if mc != 1 || pc != 1 || lc != 2 {
		t.Fatalf("Counts = %d %d %d", mc, pc, lc)
	}
	if s.StorageBytes() <= 0 {
		t.Fatal("storage bytes should be positive")
	}
}

func TestStoreModelRecordIsCompact(t *testing.T) {
	// Paper: "Each model record uses the storage of hundreds of bytes"
	// (weight-free). Verify a mid-size model stays in the KB regime.
	s, _ := OpenStore("")
	defer s.Close()
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	before := s.StorageBytes()
	if _, err := s.InsertModel(g); err != nil {
		t.Fatal(err)
	}
	sz := s.StorageBytes() - before
	if sz <= 0 || sz > 16*1024 {
		t.Fatalf("model record is %d bytes; want weight-free compact encoding", sz)
	}
}

func TestDatabasePersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := models.BuildResNet(models.BaseResNet(1))
	m, err := s.InsertModel(g)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := s.InsertPlatform("x-y-z", "x", "y", "z")
	if _, err := s.InsertLatency(LatencyRecord{ModelID: m.ID, PlatformID: p.ID, BatchSize: 1, LatencyMS: 7}); err != nil {
		t.Fatal(err)
	}
	key := m.Hash
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the evolving database carries all knowledge forward.
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec, ok, err := s2.FindModelByHash(key)
	if err != nil || !ok {
		t.Fatalf("model lost across reopen: %v %v", ok, err)
	}
	lat, ok, err := s2.FindLatency(rec.ID, p.ID, 1)
	if err != nil || !ok || lat.LatencyMS != 7 {
		t.Fatalf("latency lost across reopen: %+v %v %v", lat, ok, err)
	}
	// New inserts continue from the right auto-increment point.
	g2 := models.BuildVGG(models.BaseVGG(1))
	m2, err := s2.InsertModel(g2)
	if err != nil {
		t.Fatal(err)
	}
	if m2.ID == rec.ID {
		t.Fatal("auto-increment collision after reopen")
	}
}

func TestDatabaseToleratesTornWALTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenStore(dir)
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	if _, err := s.InsertModel(g); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate a crash mid-append: chop bytes off the WAL tail.
	path := filepath.Join(dir, "nnlqp.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	defer s2.Close()
	// The torn record (the only model) is gone, but the store works.
	if _, err := s2.InsertModel(g); err != nil {
		t.Fatal(err)
	}
}

func TestDatabaseUnknownTable(t *testing.T) {
	d, err := OpenWith("", Schemas(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Insert("nope", Row{uint64(0)}); err == nil {
		t.Fatal("want unknown-table error")
	}
	if _, err := d.Table("nope"); err == nil {
		t.Fatal("want unknown-table error")
	}
}

// TestInsertPlatformConcurrentFirstUse: 32 callers registering the same
// platform on a fresh disk store — what two first-ever concurrent /query
// requests do — all succeed and agree on one row. The check-then-insert it
// replaces let the losers of the race fail on the unique index.
func TestInsertPlatformConcurrentFirstUse(t *testing.T) {
	s, err := OpenStoreWith(t.TempDir(), Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const callers = 32
	ids := make([]uint64, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			rec, err := s.InsertPlatform("gpu-T4-trt7.1-fp32", "T4", "trt7.1", "fp32")
			if err != nil {
				errs[i] = err
				return
			}
			ids[i] = rec.ID
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range ids {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if ids[i] != ids[0] {
			t.Fatalf("caller %d got platform id %d, caller 0 got %d", i, ids[i], ids[0])
		}
	}
	if _, platforms, _ := s.Counts(); platforms != 1 {
		t.Fatalf("%d platform rows, want 1", platforms)
	}
}
