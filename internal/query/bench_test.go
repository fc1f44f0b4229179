package query

import (
	"context"
	"testing"

	"nnlqp/internal/db"
	"nnlqp/internal/graphhash"
	"nnlqp/internal/hwsim"
	"nnlqp/internal/models"
	"nnlqp/internal/onnx"
)

// newBenchSystem builds an in-memory system with one measured record for g.
func newBenchSystem(b *testing.B, g *onnx.Graph) (*System, CacheKey) {
	b.Helper()
	store, err := db.OpenStore("")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { store.Close() })
	s := New(store, &hwsim.LocalFarm{Farm: hwsim.NewDefaultFarm(2)})
	if _, err := s.Query(context.Background(), g, hwsim.DatasetPlatform); err != nil {
		b.Fatal(err)
	}
	key, err := graphhash.GraphKey(g)
	if err != nil {
		b.Fatal(err)
	}
	return s, CacheKey{Hash: key, Platform: hwsim.DatasetPlatform, Batch: g.BatchSize()}
}

// BenchmarkQueryHit compares the two cache tiers on the hit path: "l1"
// serves repeats from the in-process cache, "db" forces every iteration back
// to the durable store by dropping the L1 entry first (the pre-L1 serving
// path, plus one cheap shard probe and map delete). The BENCH_query.json baseline
// records the l1-vs-db ratio.
func BenchmarkQueryHit(b *testing.B) {
	b.Run("l1", func(b *testing.B) {
		g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
		s, _ := newBenchSystem(b, g)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := s.Query(context.Background(), g, hwsim.DatasetPlatform)
			if err != nil {
				b.Fatal(err)
			}
			if r.Tier != "l1" {
				b.Fatalf("tier = %q, want l1", r.Tier)
			}
		}
	})

	b.Run("db", func(b *testing.B) {
		g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
		s, ck := newBenchSystem(b, g)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.cache.drop(ck)
			r, err := s.Query(context.Background(), g, hwsim.DatasetPlatform)
			if err != nil {
				b.Fatal(err)
			}
			if r.Tier != "l2" {
				b.Fatalf("tier = %q, want l2", r.Tier)
			}
		}
	})
}
