package query

import (
	"sync"

	"nnlqp/internal/graphhash"
	"nnlqp/internal/onnx"
)

// The observation log remembers the graphs real traffic recently asked about
// so the active-measurement scheduler can spend idle farm capacity on the
// workload's observed distribution instead of only the static model zoo.
// Only queries that reached the farm are recorded (cache hits teach nothing
// new): a measured miss marks a graph the workload cares about, and a
// degraded or failed miss marks one the database still has no ground truth
// for — the highest-value measurement targets of all.

// DefaultObservationLog bounds how many distinct (graph, platform) entries
// the log retains.
const DefaultObservationLog = 256

// Observation is one recently observed query miss.
type Observation struct {
	Graph    *onnx.Graph
	Platform string
	Hash     graphhash.Key
	// Measured reports whether any occurrence produced a durable
	// measurement; Degraded whether the latest occurrence was answered by
	// the fallback predictor. An entry with neither set failed outright.
	Measured bool
	Degraded bool
	// Seen counts how many times this (graph, platform) pair was observed.
	Seen int
}

type obsKey struct {
	hash     graphhash.Key
	platform string
}

// obsLog is a bounded, deduplicated, insertion-ordered log. Re-observing an
// existing entry refreshes it in place (and moves it to the back) so the log
// tracks recency without unbounded growth.
type obsLog struct {
	mu      sync.Mutex
	cap     int
	order   []obsKey
	entries map[obsKey]*Observation
}

func newObsLog(capacity int) *obsLog {
	if capacity <= 0 {
		capacity = DefaultObservationLog
	}
	return &obsLog{cap: capacity, entries: make(map[obsKey]*Observation)}
}

func (l *obsLog) record(g *onnx.Graph, platform string, hash graphhash.Key, measured, degraded bool) {
	k := obsKey{hash: hash, platform: platform}
	l.mu.Lock()
	defer l.mu.Unlock()
	if e, ok := l.entries[k]; ok {
		e.Seen++
		e.Measured = e.Measured || measured
		e.Degraded = degraded
		l.touch(k)
		return
	}
	l.entries[k] = &Observation{
		Graph: g, Platform: platform, Hash: hash,
		Measured: measured, Degraded: degraded, Seen: 1,
	}
	l.order = append(l.order, k)
	if len(l.order) > l.cap {
		evict := l.order[0]
		l.order = l.order[1:]
		delete(l.entries, evict)
	}
}

// touch moves k to the back of the recency order. Callers hold l.mu.
func (l *obsLog) touch(k obsKey) {
	for i, ok := range l.order {
		if ok == k {
			copy(l.order[i:], l.order[i+1:])
			l.order[len(l.order)-1] = k
			return
		}
	}
}

// snapshot returns up to max observations, most recent first.
func (l *obsLog) snapshot(max int) []Observation {
	l.mu.Lock()
	defer l.mu.Unlock()
	if max <= 0 || max > len(l.order) {
		max = len(l.order)
	}
	out := make([]Observation, 0, max)
	for i := len(l.order) - 1; i >= 0 && len(out) < max; i-- {
		out = append(out, *l.entries[l.order[i]])
	}
	return out
}

// Observations returns up to max recently observed query misses, most recent
// first (max <= 0 returns everything retained). Entries are copies; the
// graphs themselves are shared and must be treated as read-only.
func (s *System) Observations(max int) []Observation {
	return s.obs.snapshot(max)
}

// CachedPositive reports whether the L1 tier holds an un-expired positive
// entry for g on the named platform at g's batch size — a cheap "already has
// ground truth" probe the scheduler uses to skip redundant measurements. It
// does not touch LRU order or cache counters.
func (s *System) CachedPositive(g *onnx.Graph, platform string) bool {
	key, err := graphhash.GraphKey(g)
	if err != nil {
		return false
	}
	return s.cache.Peek(CacheKey{Hash: key, Platform: platform, Batch: g.BatchSize()})
}
