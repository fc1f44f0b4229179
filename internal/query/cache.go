package query

import (
	"sync/atomic"
	"time"

	"nnlqp/internal/graphhash"
	"nnlqp/internal/lru"
)

// This file adds the L1 serving tier: a sharded in-process LRU in front of
// the durable store (which becomes the L2 tier). The database is the paper's
// "evolving database" and stays the source of truth — the L1 holds only
// records that are already durable (write-through on measurement, promotion
// on L2 hit), so an L1 entry is always a subset of the database and degraded
// (predictor-estimated) answers can never enter it. Known-absent keys are
// cached as negative entries with a TTL so miss storms skip the L2 round
// trip on their way to the farm.

// DefaultCacheEntries is the default total L1 capacity.
const DefaultCacheEntries = 8192

// DefaultNegativeTTL is the default lifetime of a negative (known-absent)
// entry. Positive entries never expire: latency measurements are immutable
// once recorded, so only absence can go stale.
const DefaultNegativeTTL = 30 * time.Second

// CacheKey identifies one latency record in the L1 tier — the same
// (graph hash, platform, batch) triple the database keys on.
type CacheKey struct {
	Hash     graphhash.Key
	Platform string
	Batch    int
}

// CacheValue is the payload of a positive L1 entry: the measured latency and
// the database row IDs so an L1 hit can answer without touching the store.
type CacheValue struct {
	LatencyMS  float64
	ModelID    uint64
	PlatformID uint64
}

// CacheStats is a point-in-time snapshot of L1 counters.
type CacheStats struct {
	Hits      uint64 // positive-entry hits
	NegHits   uint64 // un-expired negative-entry hits
	Misses    uint64
	Evictions uint64
	Size      int // total entries (positive + negative)
	Negatives int // negative entries
}

// l1Entry is the L1's stored value: a positive entry carries the record, a
// negative one only its expiry.
type l1Entry struct {
	val      CacheValue
	negative bool
	expires  time.Time // zero for positive entries
}

// Cache is the sharded L1, an lru.Cache with the tier's rules on top. Each
// rule runs inside the one shard-lock acquisition of the operation it guards.
type Cache struct {
	lru     *lru.Cache[CacheKey, l1Entry]
	negHits atomic.Uint64
	negTTL  time.Duration
	now     func() time.Time // injectable for TTL tests
}

// NewCache builds an L1 holding up to entries records in total (<=0 →
// DefaultCacheEntries) with the given negative-entry TTL (<=0 →
// DefaultNegativeTTL).
func NewCache(entries int, negTTL time.Duration) *Cache {
	if entries <= 0 {
		entries = DefaultCacheEntries
	}
	if negTTL <= 0 {
		negTTL = DefaultNegativeTTL
	}
	return &Cache{lru: lru.New[CacheKey, l1Entry](entries, cacheHash), negTTL: negTTL, now: time.Now}
}

// cacheHash places a key on its L1 shard.
func cacheHash(k CacheKey) uint64 {
	return uint64(k.Hash) ^ uint64(k.Batch)*0x9e3779b97f4a7c15
}

// Get probes the L1. The three outcomes are (val, hit=true, negative=false)
// for a positive entry, (zero, false, true) for an un-expired negative entry
// — the caller should skip the L2 probe and go measure — and (zero, false,
// false) for a miss. Expired negative entries are dropped and count as
// misses.
func (c *Cache) Get(k CacheKey) (CacheValue, bool, bool) {
	e, ok := c.lru.GetIf(k, func(e l1Entry) bool {
		return !e.negative || !c.now().After(e.expires)
	}, true)
	switch {
	case !ok:
		return CacheValue{}, false, false
	case e.negative:
		c.negHits.Add(1)
		return CacheValue{}, false, true
	}
	return e.val, true, false
}

// Peek reports whether k has a positive entry, without touching LRU order or
// any counter — a read-only probe for callers (the active-measurement
// scheduler) that must not distort serving statistics.
func (c *Cache) Peek(k CacheKey) bool {
	e, ok := c.lru.Peek(k)
	return ok && !e.negative
}

// Put records a durable measurement (write-through from the store path or
// promotion from an L2 hit). It replaces a negative entry for the same key.
func (c *Cache) Put(k CacheKey, v CacheValue) { c.lru.Put(k, l1Entry{val: v}) }

// PutNegative records that the database has no row for k, valid for the
// negative TTL. It never downgrades a positive entry: a concurrent
// write-through may have landed between this caller's L2 miss and now, and
// the durable record must win.
func (c *Cache) PutNegative(k CacheKey) {
	c.lru.PutIf(k, l1Entry{negative: true, expires: c.now().Add(c.negTTL)},
		func(old l1Entry) bool { return old.negative })
}

// Stats sums counters and sizes across shards.
func (c *Cache) Stats() CacheStats {
	// Read negHits first: every negative hit it includes is already in the
	// LRU's hit count, so the subtraction below cannot go negative.
	neg := c.negHits.Load()
	st := c.lru.Stats()
	return CacheStats{
		Hits:      st.Hits - neg,
		NegHits:   neg,
		Misses:    st.Misses,
		Evictions: st.Evictions,
		Size:      st.Size,
		Negatives: c.lru.Count(func(e l1Entry) bool { return e.negative }),
	}
}
