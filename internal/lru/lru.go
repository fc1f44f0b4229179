// Package lru is the one bounded in-process cache of the serving path: a
// sharded least-recently-used map, generic over key and value. The L1 latency
// tier (query.Cache), the prediction memo (core.PredictMemo) and the compiled
// plan cache (core's planCache) are thin wrappers over it.
//
// Keys spread over a fixed number of independently locked shards by the
// caller's hash, so concurrent goroutines contend only when their keys share a
// shard. Capacity is split evenly across the shards and enforced per shard:
// an insert that overflows a shard evicts that shard's least recently used
// entry. Every method takes one shard lock exactly once, and the callbacks
// some methods accept run under it, so a caller's rule about an entry (a TTL,
// a generation, "never downgrade") is decided atomically with the lookup it
// guards. Callbacks must not call back into the cache.
//
// The package depends only on the standard library.
package lru

import "sync"

// Shards is the number of independently locked shards.
const Shards = 16

// Shard maps a key hash to its shard index. The high half is folded in, so
// hashes with clustered low bits still spread.
func Shard(h uint64) int { return int((h ^ h>>32) % Shards) }

type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V] // intrusive recency list, head = most recent
}

type shard[K comparable, V any] struct {
	mu                      sync.Mutex
	entries                 map[K]*entry[K, V]
	head, tail              *entry[K, V]
	hits, misses, evictions uint64
}

// Stats is a point-in-time snapshot of a cache's counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Size      int
}

// Cache is a sharded LRU map from K to V. The zero value is not usable; build
// one with New.
type Cache[K comparable, V any] struct {
	shards [Shards]shard[K, V]
	cap    int // per shard
	hash   func(K) uint64
}

// New builds a cache holding up to entries values in total (rounded up to a
// whole number per shard), placing each key on the shard its hash selects.
func New[K comparable, V any](entries int, hash func(K) uint64) *Cache[K, V] {
	c := &Cache[K, V]{cap: (entries + Shards - 1) / Shards, hash: hash}
	for i := range c.shards {
		c.shards[i].entries = make(map[K]*entry[K, V])
	}
	return c
}

func (c *Cache[K, V]) shard(k K) *shard[K, V] { return &c.shards[Shard(c.hash(k))] }

// Get returns k's value and marks it most recently used. It counts as a hit
// or a miss.
func (c *Cache[K, V]) Get(k K) (V, bool) { return c.GetIf(k, nil, false) }

// GetIf is Get for entries that can go stale: live, when non-nil, judges the
// entry under the shard lock, and an entry it rejects reads — and counts — as
// a miss. With drop set the rejected entry is removed; otherwise it stays
// until a Put replaces it or it ages out.
func (c *Cache[K, V]) GetIf(k K, live func(V) bool, drop bool) (V, bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[k]
	if ok && live != nil && !live(e.val) {
		if drop {
			s.remove(e)
		}
		ok = false
	}
	if !ok {
		s.misses++
		var zero V
		return zero, false
	}
	s.hits++
	s.moveToFront(e)
	return e.val, true
}

// Peek returns k's value without touching recency order or any counter.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[k]; ok {
		return e.val, true
	}
	var zero V
	return zero, false
}

// Put stores v under k as the most recently used entry, replacing any value
// k held and evicting the shard's least recently used entry on overflow.
func (c *Cache[K, V]) Put(k K, v V) { c.PutIf(k, v, nil) }

// PutIf is Put unless k already holds a value that replace, run under the
// shard lock, declines to overwrite; that entry is then left exactly as it
// was, recency included.
func (c *Cache[K, V]) PutIf(k K, v V, replace func(old V) bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[k]; ok {
		if replace == nil || replace(e.val) {
			e.val = v
			s.moveToFront(e)
		}
		return
	}
	e := &entry[K, V]{key: k, val: v}
	s.entries[k] = e
	s.pushFront(e)
	if len(s.entries) > c.cap {
		s.remove(s.tail)
		s.evictions++
	}
}

// Stats sums counters and sizes across shards.
func (c *Cache[K, V]) Stats() (st Stats) {
	c.each(func(s *shard[K, V]) {
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.Size += len(s.entries)
	})
	return st
}

// Count returns how many entries match, without touching recency or counters.
func (c *Cache[K, V]) Count(match func(V) bool) (n int) {
	c.each(func(s *shard[K, V]) {
		for e := s.head; e != nil; e = e.next {
			if match(e.val) {
				n++
			}
		}
	})
	return n
}

// each runs fn on every shard in turn, under that shard's lock.
func (c *Cache[K, V]) each(fn func(s *shard[K, V])) {
	for i := range c.shards {
		c.shards[i].mu.Lock()
		fn(&c.shards[i])
		c.shards[i].mu.Unlock()
	}
}

// pushFront links e as most recently used. Callers hold mu.
func (s *shard[K, V]) pushFront(e *entry[K, V]) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

// unlink takes e out of the recency list. Callers hold mu.
func (s *shard[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// remove drops e from the shard. Callers hold mu.
func (s *shard[K, V]) remove(e *entry[K, V]) {
	s.unlink(e)
	delete(s.entries, e.key)
}

// moveToFront marks e most recently used. Callers hold mu.
func (s *shard[K, V]) moveToFront(e *entry[K, V]) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}
