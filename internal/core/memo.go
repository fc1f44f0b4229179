package core

import "nnlqp/internal/lru"

// PredictMemo caches predictor outputs keyed by (graph hash, platform,
// predictor generation). Because Predictor generations are process-unique
// and bump on every weight change (Fit/FineTune entry and exit, reload), a
// stale entry can never match a live predictor: invalidation is implicit in
// the key, no flush call exists or is needed. The memo is a sharded LRU so
// concurrent serving goroutines contend only per shard.
type PredictMemo struct {
	lru *lru.Cache[memoKey, float64]
}

// DefaultMemoEntries is the default total capacity of a PredictMemo.
const DefaultMemoEntries = 4096

// memoKey identifies one cached prediction. Generation is part of the key,
// not a validity check: a predictor swap or fine-tune changes the generation
// and thereby orphans (rather than corrupts) old entries, which age out of
// the LRU naturally.
type memoKey struct {
	Hash       uint64
	Platform   string
	Generation uint64
}

// MemoStats is a point-in-time snapshot of memo counters.
type MemoStats = lru.Stats

// NewPredictMemo builds a memo holding up to entries predictions in total
// (<=0 → DefaultMemoEntries). Capacity is split evenly across shards.
func NewPredictMemo(entries int) *PredictMemo {
	if entries <= 0 {
		entries = DefaultMemoEntries
	}
	return &PredictMemo{lru.New[memoKey, float64](entries, func(k memoKey) uint64 { return k.Hash })}
}

// Get returns the cached prediction for (hash, platform, generation).
func (m *PredictMemo) Get(hash uint64, platform string, generation uint64) (float64, bool) {
	return m.lru.Get(memoKey{Hash: hash, Platform: platform, Generation: generation})
}

// Put records a prediction computed under the given generation. Callers must
// read the generation before running the prediction, so a weight change that
// races the prediction lands the result under the old (now unreachable)
// generation instead of the new one.
func (m *PredictMemo) Put(hash uint64, platform string, generation uint64, latencyMS float64) {
	m.lru.Put(memoKey{Hash: hash, Platform: platform, Generation: generation}, latencyMS)
}

// Stats sums counters across shards.
func (m *PredictMemo) Stats() MemoStats { return m.lru.Stats() }
