package lru

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// refLRU is the reference model: one plain recency list per shard, most
// recent first, with the same per-shard capacity.
type refLRU struct {
	cap   int
	lists [Shards][]int
	vals  map[int]int
	// removed counts GetIf-drop removals; evictions only capacity evictions.
	hits, misses, inserts, removed, evictions int
}

func (r *refLRU) list(k int) *[]int { return &r.lists[Shard(uint64(k))] }

func (r *refLRU) drop(k int) {
	l := r.list(k)
	*l = slices.Delete(*l, slices.Index(*l, k), slices.Index(*l, k)+1)
	delete(r.vals, k)
}

func (r *refLRU) toFront(k int) {
	l := r.list(k)
	if i := slices.Index(*l, k); i >= 0 {
		*l = slices.Delete(*l, i, i+1)
	}
	*l = slices.Insert(*l, 0, k)
}

func (r *refLRU) getIf(k int, live func(int) bool, drop bool) (int, bool) {
	v, ok := r.vals[k]
	if ok && live != nil && !live(v) {
		if drop {
			r.drop(k)
			r.removed++
		}
		ok = false
	}
	if !ok {
		r.misses++
		return 0, false
	}
	r.hits++
	r.toFront(k)
	return v, true
}

// putIf mirrors Cache.PutIf and returns the evicted key, or -1.
func (r *refLRU) putIf(k, v int, replace func(int) bool) int {
	old, ok := r.vals[k]
	if ok && replace != nil && !replace(old) {
		return -1
	}
	if !ok {
		r.inserts++
	}
	r.vals[k] = v
	r.toFront(k)
	if l := *r.list(k); len(l) > r.cap {
		victim := l[len(l)-1]
		r.drop(victim)
		r.evictions++
		return victim
	}
	return -1
}

// drive runs n seeded random operations against c and a fresh reference,
// touching only keys whose shard is in shards. It reports the first
// divergence: a different hit/miss answer or value, a different eviction
// victim, a presence mismatch on any key of those shards, or a shard over
// capacity.
func drive(c *Cache[int, int], capPerShard int, seed int64, n int, shards []int) (*refLRU, error) {
	ref := &refLRU{cap: capPerShard, vals: map[int]int{}}
	var keys []int
	for k := 0; k < 8*Shards; k++ {
		if slices.Contains(shards, Shard(uint64(k))) {
			keys = append(keys, k)
		}
	}
	live := func(v int) bool { return v%3 != 0 }
	replace := func(old int) bool { return old%2 == 0 }
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		k, v := keys[rng.Intn(len(keys))], rng.Intn(1000)
		switch op := rng.Intn(17); {
		case op < 6:
			gv, gok := c.Get(k)
			if wv, wok := ref.getIf(k, nil, false); gv != wv || gok != wok {
				return nil, fmt.Errorf("op %d Get(%d) = (%d, %v), reference (%d, %v)", i, k, gv, gok, wv, wok)
			}
		case op < 9:
			drop := rng.Intn(2) == 0
			gv, gok := c.GetIf(k, live, drop)
			if wv, wok := ref.getIf(k, live, drop); gv != wv || gok != wok {
				return nil, fmt.Errorf("op %d GetIf(%d, drop=%v) = (%d, %v), reference (%d, %v)", i, k, drop, gv, gok, wv, wok)
			}
		case op < 11:
			gv, gok := c.Peek(k)
			if wv, wok := ref.vals[k]; gv != wv || gok != wok {
				return nil, fmt.Errorf("op %d Peek(%d) = (%d, %v), reference (%d, %v)", i, k, gv, gok, wv, wok)
			}
		default:
			var rep func(int) bool
			if op == 16 {
				rep = replace
			}
			c.PutIf(k, v, rep)
			if victim := ref.putIf(k, v, rep); victim >= 0 {
				if _, ok := c.Peek(victim); ok {
					return nil, fmt.Errorf("op %d Put(%d): reference evicted %d, cache kept it", i, k, victim)
				}
			}
		}
		for _, s := range shards {
			if len(ref.lists[s]) > capPerShard {
				return nil, fmt.Errorf("op %d: reference shard %d over capacity", i, s)
			}
		}
		for _, k := range keys {
			_, got := c.Peek(k)
			if _, want := ref.vals[k]; got != want {
				return nil, fmt.Errorf("op %d: key %d present=%v, reference %v", i, k, got, want)
			}
		}
	}
	return ref, nil
}

// checkCounters compares the cache's counters with the references' and pins
// the eviction identity evictions = inserts − size − removals.
func checkCounters(t *testing.T, st Stats, refs ...*refLRU) {
	t.Helper()
	var hits, misses, inserts, removed, evictions, size int
	for _, r := range refs {
		hits += r.hits
		misses += r.misses
		inserts += r.inserts
		removed += r.removed
		evictions += r.evictions
		size += len(r.vals)
	}
	if int(st.Hits) != hits || int(st.Misses) != misses || st.Size != size || int(st.Evictions) != evictions {
		t.Fatalf("stats %+v, reference hits %d misses %d size %d evictions %d", st, hits, misses, size, evictions)
	}
	if int(st.Evictions) != inserts-st.Size-removed {
		t.Fatalf("evictions %d != inserts %d - size %d - removed %d", st.Evictions, inserts, st.Size, removed)
	}
}

func identity(k int) uint64 { return uint64(k) }

// TestCacheMatchesReference drives the sharded cache and the reference model
// with the same seeded operation sequences over every shard.
func TestCacheMatchesReference(t *testing.T) {
	all := make([]int, Shards)
	for i := range all {
		all[i] = i
	}
	for capPerShard := 1; capPerShard <= 3; capPerShard++ {
		for seed := int64(1); seed <= 4; seed++ {
			c := New[int, int](capPerShard*Shards, identity)
			ref, err := drive(c, capPerShard, seed, 3000, all)
			if err != nil {
				t.Fatalf("cap %d seed %d: %v", capPerShard, seed, err)
			}
			checkCounters(t, c.Stats(), ref)
			if size := c.Stats().Size; size > capPerShard*Shards {
				t.Fatalf("size %d over capacity %d", size, capPerShard*Shards)
			}
		}
	}
}

// TestCacheConcurrentMatchesReference runs writers concurrently on one cache,
// each owning a disjoint set of shards, so every shard's history is still
// sequential and checkable against its writer's reference model. Under -race
// (make race) this pins the shard locking.
func TestCacheConcurrentMatchesReference(t *testing.T) {
	const writers, capPerShard = 4, 2
	c := New[int, int](capPerShard*Shards, identity)
	refs := make([]*refLRU, writers)
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		var own []int
		for s := w; s < Shards; s += writers {
			own = append(own, s)
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			refs[w], errs[w] = drive(c, capPerShard, int64(100+w), 2000, own)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	checkCounters(t, c.Stats(), refs...)
}

func TestCount(t *testing.T) {
	c := New[int, int](64, identity)
	for k := 0; k < 10; k++ {
		c.Put(k, k)
	}
	if n := c.Count(func(v int) bool { return v%2 == 0 }); n != 5 {
		t.Fatalf("Count(even) = %d, want 5", n)
	}
}
