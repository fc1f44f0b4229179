package query

import (
	"context"
	"testing"

	"nnlqp/internal/db"
	"nnlqp/internal/graphhash"
	"nnlqp/internal/hwsim"
	"nnlqp/internal/models"
)

// TestQueryHitL2Allocs pins the full serving-path L2 hit — hash, platform-id
// memo, point read, L1 promote — to a handful of allocations. The seed
// version of this path allocated over a thousand objects per probe (platform
// upsert plus a stored-ONNX decode per query); the pinned bound keeps that
// from creeping back.
func TestQueryHitL2Allocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race instrumentation")
	}
	store, err := db.OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	s := New(store, &hwsim.LocalFarm{Farm: hwsim.NewDefaultFarm(2)})
	if _, err := s.Query(context.Background(), g, hwsim.DatasetPlatform); err != nil {
		t.Fatal(err)
	}
	key, err := graphhash.GraphKey(g)
	if err != nil {
		t.Fatal(err)
	}
	ck := CacheKey{Hash: key, Platform: hwsim.DatasetPlatform, Batch: g.BatchSize()}
	avg := testing.AllocsPerRun(200, func() {
		s.cache.drop(ck)
		r, err := s.Query(context.Background(), g, hwsim.DatasetPlatform)
		if err != nil {
			t.Fatal(err)
		}
		if r.Tier != "l2" {
			t.Fatalf("tier = %q, want l2", r.Tier)
		}
	})
	// The residue is the Result and the re-promoted L1 entry; anything near
	// double digits means a lookup started materializing records again.
	if avg > 6 {
		t.Fatalf("L2 hit allocates %.1f objects/op, want <= 6", avg)
	}
}
