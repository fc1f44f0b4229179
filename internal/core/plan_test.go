package core

import (
	"math/rand"
	"slices"
	"testing"

	"nnlqp/internal/feats"
	"nnlqp/internal/graphhash"
	"nnlqp/internal/hwsim"
	"nnlqp/internal/lru"
	"nnlqp/internal/models"
	"nnlqp/internal/onnx"
)

// TestPredictPlannedBitIdenticalAcrossAblations pins the compiled-plan path
// (Predict: cached packed rows + stacked weights) against the per-request
// path (a width-1 PredictSamplesInto: pack, normalize every call),
// bitwise, under every ablation flag — both on the plan-building first call
// and on plan-cache hits, and again after a FineTune invalidates the plan
// generation. Both are also pinned to the training-side composition
// (trainingPredict), so the served forward cannot drift from the one that
// was fitted and validated.
func TestPredictPlannedBitIdenticalAcrossAblations(t *testing.T) {
	mutate := []func(*Config){
		func(c *Config) {},                         // full NNLP
		func(c *Config) { c.UseNodeFeats = false }, // wo/Fv0
		func(c *Config) { c.UseGNN = false },       // wo/gnn
		func(c *Config) { c.UseStatic = false },    // wo/static
		func(c *Config) { c.MeanPool = false },
		func(c *Config) { c.NoFinalNorm = false },
		func(c *Config) { c.LogTarget = false },
	}
	train := buildSamples(t, []string{models.FamilySqueezeNet}, 8, hwsim.DatasetPlatform, 51)
	rng := rand.New(rand.NewSource(52))
	g, err := models.Variant(models.FamilySqueezeNet, rng, 1)
	if err != nil {
		t.Fatal(err)
	}

	for mi, mut := range mutate {
		cfg := quickConfig()
		cfg.Epochs = 2
		mut(&cfg)
		p := New(cfg)
		if err := p.Fit(train); err != nil {
			t.Fatalf("config %d: %v", mi, err)
		}
		gf, err := p.Extract(g)
		if err != nil {
			t.Fatal(err)
		}
		solo, err := p.PredictSamplesInto(nil, []*feats.GraphFeatures{gf}, hwsim.DatasetPlatform)
		if err != nil {
			t.Fatal(err)
		}
		want := solo[0]
		if ref := trainingPredict(p, gf, hwsim.DatasetPlatform); want != ref {
			t.Fatalf("config %d: inference forward %v != training embed+head %v (must be bit-identical)", mi, want, ref)
		}
		for pass := 0; pass < 3; pass++ { // build, then two cache hits
			got, err := p.Predict(g, hwsim.DatasetPlatform)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("config %d pass %d: planned %v != sample %v (must be bit-identical)", mi, pass, got, want)
			}
		}

		// A weight change orphans the plan; the rebuilt one must track the
		// new weights, again bitwise.
		if err := p.FineTune(train[:4], 1); err != nil {
			t.Fatal(err)
		}
		solo2, err := p.PredictSamplesInto(nil, []*feats.GraphFeatures{gf}, hwsim.DatasetPlatform)
		if err != nil {
			t.Fatal(err)
		}
		want2 := solo2[0]
		if ref := trainingPredict(p, gf, hwsim.DatasetPlatform); want2 != ref {
			t.Fatalf("config %d: post-FineTune inference forward %v != training embed+head %v", mi, want2, ref)
		}
		got2, err := p.Predict(g, hwsim.DatasetPlatform)
		if err != nil {
			t.Fatal(err)
		}
		if got2 != want2 {
			t.Fatalf("config %d: post-FineTune planned %v != sample %v", mi, got2, want2)
		}
		if mi == 0 && got2 == want && want2 == want {
			t.Log("fine-tune produced identical predictions; stale-plan coverage is weak for this seed")
		}
	}
}

// trainingPredict predicts gf on platform through the training path — a
// normalized clone, embed (mean-pool scaling, static concat, the
// UseNodeFeats/UseGNN switch), the head's scratch forward without dropout,
// decodeTarget — as the reference the inference forward must match bitwise.
func trainingPredict(p *Predictor, gf *feats.GraphFeatures, platform string) float64 {
	ns := p.normalizeSamples([]Sample{{GF: gf, Platform: platform}})
	c := p.embed(ns[0].GF, nil)
	y, _ := p.heads[platform].ForwardScratch(c.headIn, false, nil, nil)
	return p.decodeTarget(y.At(0, 0), platform)
}

// TestPlanCacheStaleAndEvict unit-tests the sharded plan LRU: generation
// mismatches read as misses, same-hash puts replace in place, and overflow
// evicts the least-recently-used entry of the shard.
func TestPlanCacheStaleAndEvict(t *testing.T) {
	c := newPlanCache(lru.Shards) // capacity 1 per shard
	if c.get(7, 1) != nil {
		t.Fatal("empty cache must miss")
	}
	p1 := &graphPlan{gen: 1, hash: 7}
	c.put(p1)
	if c.get(7, 1) != p1 {
		t.Fatal("want the stored plan back")
	}
	if c.get(7, 2) != nil {
		t.Fatal("a generation-1 plan must read as a miss under generation 2")
	}
	// Same hash, new generation: replaced in place, not duplicated.
	p2 := &graphPlan{gen: 2, hash: 7}
	c.put(p2)
	if c.get(7, 2) != p2 || c.get(7, 1) != nil {
		t.Fatal("same-hash put must replace the stale plan")
	}
	// A second hash on the same shard evicts the LRU victim (capacity 1).
	other := uint64(7 + lru.Shards)
	c.put(&graphPlan{gen: 2, hash: other})
	if c.get(7, 2) != nil {
		t.Fatal("capacity-1 shard must have evicted the older entry")
	}
	if c.get(other, 2) == nil {
		t.Fatal("newest entry must survive eviction")
	}
}

// TestPredictPlannedSteadyStateAllocs pins the planned hot path: once the
// plan and pools are warm, Predict (hash → plan → fused forward) must not
// allocate.
func TestPredictPlannedSteadyStateAllocs(t *testing.T) {
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
	rng := rand.New(rand.NewSource(53))
	g, err := models.Variant(models.FamilySqueezeNet, rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.Predict(g, hwsim.DatasetPlatform); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := p.Predict(g, hwsim.DatasetPlatform); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("planned Predict allocates %.1f objects/op in steady state, want 0", avg)
	}
}

// BenchmarkPredictPlanned measures the full Predict entry point on a warm
// plan cache — the serving path for a known graph on a platform/generation
// the prediction memo has not seen (its complement, BenchmarkPredictSteadyState,
// measures the plan-less width-1 PredictSamplesInto).
func BenchmarkPredictPlanned(b *testing.B) {
	train := buildSamples(b, []string{models.FamilySqueezeNet}, 10, hwsim.DatasetPlatform, 43)
	cfg := quickConfig()
	cfg.Epochs = 2
	p := New(cfg)
	if err := p.Fit(train); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(54))
	g, err := models.Variant(models.FamilySqueezeNet, rng, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.Predict(g, hwsim.DatasetPlatform); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Predict(g, hwsim.DatasetPlatform); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictFresh measures Predict on graphs it has never seen, the
// path every predict_sweep request takes: each call pays feature extraction,
// the graph hash, a plan build and the forward, like the repository
// benchmark's predict_cold probe. The predictor has the default shape
// (hidden 48, depth 3) that nnlqp-train builds. The graphs cycle through
// distinct zoo variants until every plan-cache shard has more of them than it
// holds, so LRU order evicts each plan before its graph comes round again;
// InvalidateMemo drops the graph's memoized index and features.
func BenchmarkPredictFresh(b *testing.B) {
	train := buildSamples(b, []string{models.FamilySqueezeNet}, 10, hwsim.DatasetPlatform, 43)
	cfg := DefaultConfig()
	cfg.Epochs = 2
	p := New(cfg)
	if err := p.Fit(train); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(55))
	var graphs []*onnx.Graph
	seen := map[graphhash.Key]bool{}
	var perShard [lru.Shards]int
	for f := 0; slices.Min(perShard[:]) <= defaultPlanEntries/lru.Shards; f = (f + 1) % len(models.Families) {
		g, err := models.Variant(models.Families[f], rng, 1)
		if err != nil {
			b.Fatal(err)
		}
		key, err := graphhash.GraphKey(g)
		if err != nil {
			b.Fatal(err)
		}
		if !seen[key] {
			seen[key] = true
			perShard[lru.Shard(uint64(key))]++
			graphs = append(graphs, g)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := graphs[i%len(graphs)]
		g.InvalidateMemo()
		if _, err := p.Predict(g, hwsim.DatasetPlatform); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := p.plans.lru.Stats(); st.Hits != 0 {
		b.Fatalf("%d plan-cache hits over %d distinct graphs, want 0", st.Hits, len(graphs))
	}
}
