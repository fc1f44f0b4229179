package core

import (
	"sync"
	"testing"

	"nnlqp/internal/feats"
	"nnlqp/internal/hwsim"
	"nnlqp/internal/lru"
	"nnlqp/internal/models"
)

func TestPredictMemoGetPutLRU(t *testing.T) {
	m := NewPredictMemo(lru.Shards) // capacity 1 per shard
	if _, ok := m.Get(1, "p", 1); ok {
		t.Fatal("empty memo must miss")
	}
	m.Put(1, "p", 1, 3.5)
	if v, ok := m.Get(1, "p", 1); !ok || v != 3.5 {
		t.Fatalf("Get = (%v, %v), want (3.5, true)", v, ok)
	}
	// Same hash and generation, different platform: a distinct entry that
	// lands on the same shard and evicts the first (per-shard capacity 1).
	m.Put(1, "q", 1, 7)
	if _, ok := m.Get(1, "p", 1); ok {
		t.Fatal("older entry must be the LRU victim")
	}
	if v, ok := m.Get(1, "q", 1); !ok || v != 7 {
		t.Fatalf("Get = (%v, %v), want (7, true)", v, ok)
	}
	st := m.Stats()
	if st.Evictions != 1 || st.Size != 1 {
		t.Fatalf("stats = %+v, want 1 eviction / size 1", st)
	}
	if st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 hits / 2 misses", st)
	}
}

func TestPredictMemoGenerationIsolation(t *testing.T) {
	m := NewPredictMemo(0)
	m.Put(42, "plat", 1, 9.25)
	if _, ok := m.Get(42, "plat", 2); ok {
		t.Fatal("an entry from generation 1 must be invisible under generation 2")
	}
	if v, ok := m.Get(42, "plat", 1); !ok || v != 9.25 {
		t.Fatalf("Get = (%v, %v), want the generation-1 entry intact", v, ok)
	}
}

func TestPredictMemoConcurrent(t *testing.T) {
	m := NewPredictMemo(64)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				h := uint64(i % 100)
				switch (i + w) % 3 {
				case 0:
					m.Put(h, "p", uint64(w%2), float64(i))
				case 1:
					m.Get(h, "p", uint64(w%2))
				case 2:
					m.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	if n := m.Stats().Size; n > 64 {
		t.Fatalf("size %d exceeds capacity", n)
	}
}

// TestGenerationChangesOnWeightUpdates pins the invalidation contract: any
// path that can change predictions (Fit, FineTune, constructing or loading a
// predictor) must change Generation(), so memo entries keyed by the old
// generation become unreachable without an explicit flush.
func TestGenerationChangesOnWeightUpdates(t *testing.T) {
	train := buildSamples(t, []string{models.FamilySqueezeNet}, 8, hwsim.DatasetPlatform, 41)
	cfg := quickConfig()
	cfg.Epochs = 2

	p := New(cfg)
	q := New(cfg)
	if p.Generation() == q.Generation() {
		t.Fatal("two predictors must never share a generation")
	}

	g0 := p.Generation()
	if err := p.Fit(train); err != nil {
		t.Fatal(err)
	}
	g1 := p.Generation()
	if g1 == g0 {
		t.Fatal("Fit must bump the generation")
	}
	if err := p.FineTune(train[:4], 1); err != nil {
		t.Fatal(err)
	}
	g2 := p.Generation()
	if g2 == g1 {
		t.Fatal("FineTune must bump the generation")
	}

	// The serving pattern: a memo entry recorded under the pre-fine-tune
	// generation is unreachable afterwards — lookups under the live
	// generation miss and the caller re-predicts.
	m := NewPredictMemo(0)
	gen := p.Generation()
	v, err := p.PredictSamplesInto(nil, []*feats.GraphFeatures{train[0].GF}, hwsim.DatasetPlatform)
	if err != nil {
		t.Fatal(err)
	}
	m.Put(1, hwsim.DatasetPlatform, gen, v[0])
	if err := p.FineTune(train[4:], 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get(1, hwsim.DatasetPlatform, p.Generation()); ok {
		t.Fatal("memo entry must be stale after FineTune changed the generation")
	}
}

// TestPredictSteadyStateAllocs pins the allocation-free hot path: once the
// sync.Pool-backed workspace is warm, a width-1 PredictSamplesInto into a
// reused dst (pack, normalize, forward) must not allocate.
func TestPredictSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool intentionally bypasses its cache under -race, so alloc counts are meaningless")
	}
	train := buildSamples(t, []string{models.FamilySqueezeNet}, 10, hwsim.DatasetPlatform, 42)
	cfg := quickConfig()
	cfg.Epochs = 2
	p := New(cfg)
	if err := p.Fit(train); err != nil {
		t.Fatal(err)
	}
	gfs := []*feats.GraphFeatures{train[0].GF}
	dst := make([]float64, 0, 1)
	// Warm the pool so every shape bucket exists.
	for i := 0; i < 3; i++ {
		if _, err := p.PredictSamplesInto(dst, gfs, hwsim.DatasetPlatform); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := p.PredictSamplesInto(dst, gfs, hwsim.DatasetPlatform); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("PredictSamplesInto allocates %.1f objects/op in steady state, want 0", avg)
	}
}

// BenchmarkPredictSteadyState measures the warmed plan-less single
// prediction: a width-1 PredictSamplesInto packs and normalizes the features
// and runs the forward on every call (run with -benchmem; the allocs/op
// column is pinned to 0 by TestPredictSteadyStateAllocs).
func BenchmarkPredictSteadyState(b *testing.B) {
	train := buildSamples(b, []string{models.FamilySqueezeNet}, 10, hwsim.DatasetPlatform, 43)
	cfg := quickConfig()
	cfg.Epochs = 2
	p := New(cfg)
	if err := p.Fit(train); err != nil {
		b.Fatal(err)
	}
	gfs := []*feats.GraphFeatures{train[0].GF}
	dst := make([]float64, 0, 1)
	for i := 0; i < 3; i++ {
		if _, err := p.PredictSamplesInto(dst, gfs, hwsim.DatasetPlatform); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.PredictSamplesInto(dst, gfs, hwsim.DatasetPlatform); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredictMemoGet(b *testing.B) {
	m := NewPredictMemo(0)
	for i := 0; i < 256; i++ {
		m.Put(uint64(i), "p", 1, float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.Get(uint64(i%256), "p", 1); !ok {
			b.Fatal("miss")
		}
	}
}

// TestPredictMemoGetHitAllocs pins a memo hit at zero allocations, its count
// before the memo moved onto internal/lru.
func TestPredictMemoGetHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race instrumentation")
	}
	m := NewPredictMemo(0)
	m.Put(7, "p", 1, 2.5)
	if avg := testing.AllocsPerRun(1000, func() { m.Get(7, "p", 1) }); avg != 0 {
		t.Fatalf("PredictMemo.Get hit allocates %.1f objects/op, want 0", avg)
	}
}
