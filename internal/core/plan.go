package core

import (
	"fmt"

	"nnlqp/internal/feats"
	"nnlqp/internal/gnn"
	"nnlqp/internal/lru"
	"nnlqp/internal/tensor"
)

// This file holds the compiled prediction plans of the serving hot path.
// Two caches, both keyed so that invalidation is implicit (the same
// generation discipline as PredictMemo):
//
//   - weightPlan: the encoder's stacked [W1;W2] matrices for the fused
//     inference forward, rebuilt once per predictor generation instead of
//     once per call. One atomic pointer, double-checked rebuild.
//   - graphPlan: per-graph-hash compiled request state — the normalized
//     node-feature matrix, the flattened CSR adjacency and the normalized
//     static vector. Repeat predictions of a known graph on a new platform
//     or generation (where the downstream prediction memo misses) skip
//     feature cloning, normalization and adjacency reshaping entirely.
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

// graphPlan is one graph's compiled request state under one generation.
// All fields are read-only after build, so concurrent predictions share a
// plan freely.
type graphPlan struct {
	gen    uint64
	hash   uint64
	x      *tensor.Matrix // normalized node features
	csr    gnn.CSR        // flattened adjacency
	static []float64      // normalized static features
	nodes  int
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

// buildPlan compiles one graph's request state: clone + normalize features
// once, flatten the adjacency once. The build allocates; every subsequent
// prediction through the plan does not.
func (p *Predictor) buildPlan(hash, gen uint64, gf *feats.GraphFeatures) *graphPlan {
	pl := &graphPlan{gen: gen, hash: hash, nodes: gf.X.Rows}
	pl.x = gf.X.Clone()
	p.norm.ApplyX(pl.x)
	pl.static = append([]float64(nil), gf.Static...)
	p.norm.ApplyStatic(pl.static)
	pl.csr.Reset()
	pl.csr.AppendGraph(gf.Adj, 0)
	return pl
}

// predictPlanned is PredictSample through the plan cache: normalization and
// adjacency flattening come precompiled, so the request's cost is one fused
// forward pass. Bit-identical to PredictSample (Apply ≡ ApplyX+ApplyStatic
// and the forward is the same fused kernel chain).
func (p *Predictor) predictPlanned(hash uint64, gf *feats.GraphFeatures, platform string) (float64, error) {
	if p.norm == nil {
		return 0, fmt.Errorf("core: predictor not fitted")
	}
	h, ok := p.heads[platform]
	if !ok {
		return 0, fmt.Errorf("core: no head for platform %q", platform)
	}
	gen := p.gen.Load()
	pl := p.plans.get(hash, gen)
	if pl == nil {
		pl = p.buildPlan(hash, gen, gf)
		p.plans.put(pl)
	}
	st := p.infPool.Get().(*predictState)
	headIn := p.embedFused(pl.x, &pl.csr, pl.static, st.sc)
	pred := h.ForwardInfer(headIn, st.sc)
	out := p.decodeTarget(pred.At(0, 0), platform)
	st.sc.Reset()
	p.infPool.Put(st)
	return out, nil
}
