package core

import (
	"nnlqp/internal/feats"
	"nnlqp/internal/graphhash"
	"nnlqp/internal/lru"
	"nnlqp/internal/onnx"
	"nnlqp/internal/tensor"
)

// This file holds the compiled prediction plans of the serving hot path.
// Two caches, both keyed so that invalidation is implicit (the same
// generation discipline as PredictMemo):
//
//   - weightPlan: the encoder's stacked [W1;W2] matrices for the fused
//     inference forward, rebuilt once per predictor generation instead of
//     once per call. One atomic pointer, double-checked rebuild.
//   - graphPlan: per-graph-hash compiled request state — the graph packed
//     as a one-segment forward input (normalized node features, flattened
//     CSR adjacency, normalized static vector). Repeat predictions of a
//     known graph on a new platform or generation (where the downstream
//     prediction memo misses) skip packing and normalization entirely.
//
// A generation mismatch can only orphan an entry, never corrupt a result:
// Fit/FineTune bump the generation before touching weights, so anything a
// racing reader builds lands under the old generation, which no future
// reader asks for.

// weightPlan is one generation's stacked encoder weights.
type weightPlan struct {
	gen     uint64
	stacked []*tensor.Matrix // one 2In×Out [W1;W2] per encoder layer
}

// weightPlanCurrent returns the stacked weights for the current generation,
// rebuilding them at most once per generation. Callers must only use it
// when the predictor has an encoder.
func (p *Predictor) weightPlanCurrent() *weightPlan {
	gen := p.gen.Load()
	if wp := p.wplan.Load(); wp != nil && wp.gen == gen {
		return wp
	}
	p.wplanMu.Lock()
	defer p.wplanMu.Unlock()
	if wp := p.wplan.Load(); wp != nil && wp.gen == gen {
		return wp
	}
	wp := &weightPlan{gen: gen, stacked: p.enc.StackedWeightsAll()}
	p.wplan.Store(wp)
	return wp
}

// graphPlan is one graph's compiled request state under one generation: its
// packed, normalized forward input. All fields are read-only after build, so
// concurrent predictions share a plan freely.
type graphPlan struct {
	gen  uint64
	hash uint64
	in   rows
}

// defaultPlanEntries bounds the plan cache. Plans carry a full normalized
// feature matrix (tens of KB for typical graphs), so the cap sits well
// below the prediction memo's.
const defaultPlanEntries = 512

// planCache is an LRU of graphPlans keyed by graph hash. A plan built under
// another generation reads as a miss and is replaced in place by the next put
// for its hash.
type planCache struct {
	lru *lru.Cache[uint64, *graphPlan]
}

func newPlanCache(entries int) *planCache {
	return &planCache{lru.New[uint64, *graphPlan](entries, func(h uint64) uint64 { return h })}
}

// get returns the plan for (hash, gen), or nil on miss/stale.
func (c *planCache) get(hash, gen uint64) *graphPlan {
	pl, _ := c.lru.GetIf(hash, func(pl *graphPlan) bool { return pl.gen == gen }, false)
	return pl
}

// put stores pl, replacing any same-hash entry, stale or not.
func (c *planCache) put(pl *graphPlan) { c.lru.Put(pl.hash, pl) }

// Predict extracts features (memoized on the graph) and predicts latency
// (ms). Repeat predictions for the same *onnx.Graph skip extraction entirely
// (see feats.ExtractCached for the mutation caveat), and known graph hashes
// hit the compiled plan cache, skipping packing and normalization too, so
// the request's cost is one forward. A plan miss compiles the graph once —
// the build allocates; every later prediction through the plan does not.
func (p *Predictor) Predict(g *onnx.Graph, platform string) (float64, error) {
	gf, err := p.Extract(g)
	if err != nil {
		return 0, err
	}
	// Extraction built the graph's index, so the key is a memo read plus the
	// input-shape fold, and cannot fail.
	key, err := graphhash.GraphKey(g)
	if err != nil {
		return 0, err
	}
	if err := p.ready(platform); err != nil {
		return 0, err
	}
	gen := p.gen.Load()
	pl := p.plans.get(uint64(key), gen)
	if pl == nil {
		pl = &graphPlan{gen: gen, hash: uint64(key)}
		p.pack(&pl.in, []*feats.GraphFeatures{gf})
		p.plans.put(pl)
	}
	st := p.workspace()
	var out [1]float64
	v := p.forward(out[:0], st.sc, &pl.in, []string{platform})[0]
	p.workspaces.Put(st)
	return v, nil
}
