package query

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"nnlqp/internal/graphhash"
	"nnlqp/internal/hwsim"
	"nnlqp/internal/lru"
	"nnlqp/internal/models"
	"nnlqp/internal/onnx"
)

func ck(i int) CacheKey {
	return CacheKey{Hash: graphhash.Key(i), Platform: "p", Batch: 1}
}

// SetClock overrides the TTL clock (not safe once serving).
func (c *Cache) SetClock(now func() time.Time) { c.now = now }

// drop removes k's entry through the LRU's drop-on-stale probe, so the next
// query for it reads the durable tier. The probe counts as an L1 miss.
func (c *Cache) drop(k CacheKey) { c.lru.GetIf(k, func(l1Entry) bool { return false }, true) }

// l1Key is the L1 key of g on platform at g's batch size.
func l1Key(t *testing.T, g *onnx.Graph, platform string) CacheKey {
	t.Helper()
	key, err := graphhash.GraphKey(g)
	if err != nil {
		t.Fatal(err)
	}
	return CacheKey{Hash: key, Platform: platform, Batch: g.BatchSize()}
}

// shardOf is the L1 shard a key lands on.
func shardOf(k CacheKey) int { return lru.Shard(cacheHash(k)) }

func TestCacheLRUEviction(t *testing.T) {
	// One entry of capacity per shard: inserting two keys on the same shard
	// must evict the older one.
	c := NewCache(lru.Shards, time.Minute)
	var a, b CacheKey
	found := false
	for i := 0; i < 1000 && !found; i++ {
		for j := i + 1; j < 1000; j++ {
			if shardOf(ck(i)) == shardOf(ck(j)) {
				a, b, found = ck(i), ck(j), true
				break
			}
		}
	}
	if !found {
		t.Fatal("no shard collision found")
	}
	c.Put(a, CacheValue{LatencyMS: 1})
	c.Put(b, CacheValue{LatencyMS: 2})
	if _, hit, _ := c.Get(a); hit {
		t.Fatal("a must be evicted (LRU) after b filled the shard")
	}
	if v, hit, _ := c.Get(b); !hit || v.LatencyMS != 2 {
		t.Fatalf("b = (%v, %v), want hit with 2", v, hit)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Size != 1 {
		t.Fatalf("stats = %+v, want 1 eviction / size 1", st)
	}
}

func TestCacheLRUOrderRefreshedByGet(t *testing.T) {
	c := NewCache(2*lru.Shards, time.Minute)
	// Find three keys on one shard: insert a, b; touch a; insert c → b out.
	var keys []CacheKey
	target := shardOf(ck(0))
	for i := 0; len(keys) < 3 && i < 10000; i++ {
		if shardOf(ck(i)) == target {
			keys = append(keys, ck(i))
		}
	}
	if len(keys) < 3 {
		t.Fatal("not enough shard-colliding keys")
	}
	a, b, cc := keys[0], keys[1], keys[2]
	c.Put(a, CacheValue{LatencyMS: 1})
	c.Put(b, CacheValue{LatencyMS: 2})
	c.Get(a) // a becomes MRU
	c.Put(cc, CacheValue{LatencyMS: 3})
	if _, hit, _ := c.Get(b); hit {
		t.Fatal("b must be the LRU victim after a was touched")
	}
	if _, hit, _ := c.Get(a); !hit {
		t.Fatal("a must survive: it was most recently used")
	}
}

func TestCacheNegativeTTL(t *testing.T) {
	c := NewCache(0, time.Second)
	now := time.Unix(1000, 0)
	c.SetClock(func() time.Time { return now })

	k := ck(7)
	if _, hit, neg := c.Get(k); hit || neg {
		t.Fatal("empty cache must miss")
	}
	c.PutNegative(k)
	if _, hit, neg := c.Get(k); hit || !neg {
		t.Fatal("fresh negative entry must report negative")
	}
	now = now.Add(2 * time.Second)
	if _, hit, neg := c.Get(k); hit || neg {
		t.Fatal("expired negative entry must miss")
	}
	if st := c.Stats(); st.Size != 0 {
		t.Fatalf("expired entry must be dropped, size = %d", st.Size)
	}
}

func TestCachePutNeverDowngradedByNegative(t *testing.T) {
	// A write-through landing between another query's L2 miss and its
	// PutNegative must win: the durable record stays served.
	c := NewCache(0, time.Minute)
	k := ck(3)
	c.Put(k, CacheValue{LatencyMS: 9})
	c.PutNegative(k)
	v, hit, _ := c.Get(k)
	if !hit || v.LatencyMS != 9 {
		t.Fatalf("positive entry downgraded: (%v, %v)", v, hit)
	}
	// The reverse direction does replace: a measurement upgrades a negative.
	k2 := ck(4)
	c.PutNegative(k2)
	c.Put(k2, CacheValue{LatencyMS: 5})
	if v, hit, _ := c.Get(k2); !hit || v.LatencyMS != 5 {
		t.Fatalf("negative entry not upgraded: (%v, %v)", v, hit)
	}
	if st := c.Stats(); st.Negatives != 0 {
		t.Fatalf("negatives = %d, want 0", st.Negatives)
	}
}

// TestCacheConcurrentWriters hammers one small cache from many goroutines
// mixing every mutation; run under -race (make race) this pins down the
// shard locking. Invariants: no panic, and size never exceeds capacity.
func TestCacheConcurrentWriters(t *testing.T) {
	c := NewCache(64, time.Millisecond)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := ck(i % 200)
				switch (i + w) % 5 {
				case 0:
					c.Put(k, CacheValue{LatencyMS: float64(i)})
				case 1:
					c.PutNegative(k)
				case 2:
					c.Get(k)
				case 3:
					c.drop(k)
				case 4:
					c.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	// Per-shard capacity is ceil(64/16)=4, so 16*4 total.
	if st := c.Stats(); st.Size > 64 {
		t.Fatalf("size %d exceeds capacity", st.Size)
	}
}

func TestQuerySecondHitServedFromL1(t *testing.T) {
	s := newSystem(t)
	ctx := context.Background()
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))

	r1, err := s.Query(ctx, g, hwsim.DatasetPlatform)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Hit || r1.Tier != "" {
		t.Fatalf("first query = %+v, want a measured miss", r1)
	}

	r2, err := s.Query(ctx, g, hwsim.DatasetPlatform)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Hit || r2.Tier != "l1" || r2.Provenance != "cache" {
		t.Fatalf("second query = %+v, want an l1 hit (write-through on measure)", r2)
	}
	if r2.LatencyMS != r1.LatencyMS {
		t.Fatalf("l1 latency %v != measured %v", r2.LatencyMS, r1.LatencyMS)
	}
	if r2.ModelID != r1.ModelID || r2.PlatformID != r1.PlatformID {
		t.Fatalf("l1 row ids (%d,%d) != measured (%d,%d)", r2.ModelID, r2.PlatformID, r1.ModelID, r1.PlatformID)
	}
	// An L1 hit skips the database round trip on the virtual clock too.
	if want := hashCostSec(g) + l1CostSec; r2.SimSeconds != want {
		t.Fatalf("l1 SimSeconds = %v, want %v", r2.SimSeconds, want)
	}

	// With the L1 entry dropped the same query falls back to the L2 tier and
	// gets re-promoted.
	s.cache.drop(l1Key(t, g, hwsim.DatasetPlatform))
	r3, err := s.Query(ctx, g, hwsim.DatasetPlatform)
	if err != nil {
		t.Fatal(err)
	}
	if !r3.Hit || r3.Tier != "l2" {
		t.Fatalf("post-drop query = %+v, want an l2 hit", r3)
	}
	r4, err := s.Query(ctx, g, hwsim.DatasetPlatform)
	if err != nil {
		t.Fatal(err)
	}
	if r4.Tier != "l1" {
		t.Fatalf("re-promoted query = %+v, want l1", r4)
	}

	st := s.Stats()
	if st.Hits != 3 || st.L1Hits != 2 {
		t.Fatalf("stats = %+v, want 3 hits of which 2 l1", st)
	}
	if st.L1Size != 1 {
		t.Fatalf("L1Size = %d, want 1", st.L1Size)
	}
}

func TestQueryNegativeEntrySkipsL2Probe(t *testing.T) {
	// A farm that always fails leaves a negative entry; the retry within the
	// TTL must skip the store probe (observable via L1NegHits).
	farm := &fakeFarm{errEvery: 1, devices: 1}
	s := newSystemWith(t, farm)
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))

	if _, err := s.Query(context.Background(), g, hwsim.DatasetPlatform); err == nil {
		t.Fatal("want measurement failure")
	}
	st := s.Stats()
	if st.L1Negatives != 1 {
		t.Fatalf("negatives = %d, want 1 after a confirmed-absent probe", st.L1Negatives)
	}
	if _, err := s.Query(context.Background(), g, hwsim.DatasetPlatform); err == nil {
		t.Fatal("want second measurement failure")
	}
	st = s.Stats()
	if st.L1NegHits != 1 {
		t.Fatalf("L1NegHits = %d, want 1 (retry must skip the L2 probe)", st.L1NegHits)
	}
	// A successful measurement upgrades the negative entry in place.
	farm.mu.Lock()
	farm.errEvery = 0
	farm.mu.Unlock()
	r, err := s.Query(context.Background(), g, hwsim.DatasetPlatform)
	if err != nil {
		t.Fatal(err)
	}
	if r.Hit {
		t.Fatalf("query = %+v, want a measured miss", r)
	}
	st = s.Stats()
	if st.L1Negatives != 0 || st.L1Size != 1 {
		t.Fatalf("stats = %+v, want the negative upgraded to a positive entry", st)
	}
}

// TestQueryConcurrentL1 mixes concurrent queries over a shared system with
// L1 drops; run under -race this exercises the Query/L1 interleavings.
func TestQueryConcurrentL1(t *testing.T) {
	s := newSystemWith(t, &fakeFarm{devices: 4})
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	key := l1Key(t, g, hwsim.DatasetPlatform)
	const workers = 8
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if w == 0 && i%10 == 5 {
					s.cache.drop(key)
					continue
				}
				r, err := s.Query(context.Background(), g, hwsim.DatasetPlatform)
				if err != nil {
					errCh <- fmt.Errorf("worker %d query %d: %w", w, i, err)
					return
				}
				if r.LatencyMS != 1.5 {
					errCh <- fmt.Errorf("worker %d query %d: latency %v", w, i, r.LatencyMS)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestL1HitAllocs pins the L1 hit path at its allocation count before the
// cache moved onto internal/lru: a Cache.Get hit allocates nothing, and a
// System.Query L1 hit allocates only its Result.
func TestL1HitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race instrumentation")
	}
	c := NewCache(0, time.Minute)
	c.Put(ck(5), CacheValue{LatencyMS: 1})
	if avg := testing.AllocsPerRun(1000, func() { c.Get(ck(5)) }); avg != 0 {
		t.Fatalf("Cache.Get hit allocates %.1f objects/op, want 0", avg)
	}

	s := newSystem(t)
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	if _, err := s.Query(context.Background(), g, hwsim.DatasetPlatform); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(1000, func() {
		r, err := s.Query(context.Background(), g, hwsim.DatasetPlatform)
		if err != nil || r.Tier != "l1" {
			t.Fatalf("query = %+v, %v; want an l1 hit", r, err)
		}
	})
	if avg != 1 {
		t.Fatalf("System.Query L1 hit allocates %.1f objects/op, want 1 (the Result)", avg)
	}
}
