package db

import (
	"math"
	"testing"

	"nnlqp/internal/graphhash"
	"nnlqp/internal/models"
)

// TestAppendLatencyKey pins the stack-rendered lookup key byte-identical to
// the Sprintf-style latencyKey the unique index was built with — the two must
// never diverge or point reads silently miss rows older writes created.
func TestAppendLatencyKey(t *testing.T) {
	cases := []struct {
		modelID, platformID uint64
		batch               int
	}{
		{0, 0, 0},
		{1, 2, 3},
		{math.MaxUint64, math.MaxUint64, math.MaxInt},
		{42, 7, -8}, // negative batch must render like %d, sign included
	}
	for _, c := range cases {
		want := latencyKey(c.modelID, c.platformID, c.batch)
		got := string(appendLatencyKey(nil, c.modelID, c.platformID, c.batch))
		if got != want {
			t.Fatalf("appendLatencyKey(%d,%d,%d) = %q, want %q", c.modelID, c.platformID, c.batch, got, want)
		}
	}
}

// TestPointReads pins the ID-only/by-value lookups against their
// record-materializing counterparts, including the miss cases.
func TestPointReads(t *testing.T) {
	s, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	m, err := s.InsertModel(g)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.InsertPlatform("gpu-T4-trt7.1-fp32", "T4", "trt7.1", "fp32")
	if err != nil {
		t.Fatal(err)
	}
	want := LatencyRecord{ModelID: m.ID, PlatformID: p.ID, BatchSize: 8, LatencyMS: 3.25, Runs: 50, PeakMemBytes: 1 << 20}
	if _, err := s.InsertLatency(want); err != nil {
		t.Fatal(err)
	}

	id, ok, err := s.ModelIDByHash(m.Hash)
	if err != nil || !ok || id != m.ID {
		t.Fatalf("ModelIDByHash = %d %v %v, want %d", id, ok, err, m.ID)
	}
	if _, ok, _ := s.ModelIDByHash(graphhash.Key(12345)); ok {
		t.Fatal("phantom model hash hit")
	}

	pid, ok, err := s.PlatformIDByName(p.Name)
	if err != nil || !ok || pid != p.ID {
		t.Fatalf("PlatformIDByName = %d %v %v, want %d", pid, ok, err, p.ID)
	}
	if _, ok, _ := s.PlatformIDByName("no-such-platform"); ok {
		t.Fatal("phantom platform hit")
	}

	rec, ok, err := s.LatencyValue(m.ID, p.ID, 8)
	if err != nil || !ok {
		t.Fatalf("LatencyValue: %v %v", ok, err)
	}
	ref, ok2, err2 := s.FindLatency(m.ID, p.ID, 8)
	if err2 != nil || !ok2 {
		t.Fatalf("FindLatency: %v %v", ok2, err2)
	}
	if rec != *ref {
		t.Fatalf("LatencyValue %+v != FindLatency %+v", rec, *ref)
	}
	if _, ok, _ := s.LatencyValue(m.ID, p.ID, 9); ok {
		t.Fatal("phantom latency hit on wrong batch")
	}
}

// TestPointReadAllocs pins the whole serving-path L2 probe — model-id
// resolution plus the by-value latency read — to zero allocations. This is
// the contract the typed table views exist for; a regression here silently
// restores the per-query garbage this path was built to eliminate.
func TestPointReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race instrumentation")
	}
	s, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	m, _ := s.InsertModel(g)
	p, _ := s.InsertPlatform("gpu-T4-trt7.1-fp32", "T4", "trt7.1", "fp32")
	if _, err := s.InsertLatency(LatencyRecord{ModelID: m.ID, PlatformID: p.ID, BatchSize: 1, LatencyMS: 3.5, Runs: 50}); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		id, ok, err := s.ModelIDByHash(m.Hash)
		if err != nil || !ok {
			t.Fatal("model probe missed")
		}
		if _, ok, err := s.LatencyValue(id, p.ID, 1); err != nil || !ok {
			t.Fatal("latency probe missed")
		}
	})
	if avg > 0 {
		t.Fatalf("L2 point read allocates %.1f objects/op, want 0", avg)
	}
}

// BenchmarkPointRead measures the lean L2 probe the serving path runs on
// every L1 miss: an ID-only model lookup plus a by-value latency read.
func BenchmarkPointRead(b *testing.B) {
	s, err := OpenStore("")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	m, _ := s.InsertModel(g)
	p, _ := s.InsertPlatform("gpu-T4-trt7.1-fp32", "T4", "trt7.1", "fp32")
	if _, err := s.InsertLatency(LatencyRecord{ModelID: m.ID, PlatformID: p.ID, BatchSize: 1, LatencyMS: 3.5, Runs: 50}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id, ok, _ := s.ModelIDByHash(m.Hash)
		if !ok {
			b.Fatal("miss")
		}
		if _, ok, _ := s.LatencyValue(id, p.ID, 1); !ok {
			b.Fatal("miss")
		}
	}
}
