// Package gnn implements the neural building blocks of NNLP's unified graph
// embedding (paper §6.1): GraphSAGE convolution layers with mean
// aggregation and L2 output normalization (Eq. 4), sum-pooling graph
// readout (Eq. 5), and the fully-connected / ReLU / Dropout prediction head
// (Fig. 3) — all with hand-derived backward passes verified by
// finite-difference gradient checks.
//
// Forward and backward are re-entrant: no method mutates shared state. All
// per-sample intermediates live in caller-owned caches, matrix scratch comes
// from an optional per-worker tensor.Scratch, and parameter gradients flow
// to a caller-supplied tensor.GradBuf (nil falls back to Param.Grad, the
// single-threaded convention). Concurrent samples therefore only ever read
// the shared parameters.
package gnn

import (
	"math"
	"math/rand"

	"nnlqp/internal/tensor"
)

// normEps guards the L2 normalization against zero rows.
const normEps = 1e-10

// SAGEConv is one GraphSAGE layer:
//
//	F_v^i = L2( W1·F_v^(i-1) + W2·mean_{u∈N(v)} F_u^(i-1) )
//
// with learnable W1 (self transform) and W2 (neighbour transform).
type SAGEConv struct {
	W1, W2 *tensor.Param
	In     int
	Out    int
	// NoNorm skips the L2 output normalization. Useful on the final layer
	// of an encoder whose readout is a sum: normalization erases per-node
	// magnitude, which an additive readout needs.
	NoNorm bool
}

// NewSAGEConv allocates a layer with Xavier initialization.
func NewSAGEConv(name string, in, out int, rng *rand.Rand) *SAGEConv {
	l := &SAGEConv{
		W1: tensor.NewParam(name+".W1", in, out),
		W2: tensor.NewParam(name+".W2", in, out),
		In: in, Out: out,
	}
	l.W1.Value.XavierInit(rng)
	l.W2.Value.XavierInit(rng)
	return l
}

// Params returns the layer's learnable parameters.
func (l *SAGEConv) Params() []*tensor.Param { return []*tensor.Param{l.W1, l.W2} }

// sageCache holds forward intermediates needed by the backward pass.
type sageCache struct {
	x     *tensor.Matrix // input features
	mx    *tensor.Matrix // mean-aggregated neighbour features
	h     *tensor.Matrix // normalized output
	norms []float64      // pre-normalization row norms
	skip  []bool         // rows left unnormalized (near-zero norm)
	adj   [][]int
}

// meanAggregate computes M[i] = mean over neighbours of X rows (zero when a
// node has no neighbours), into a scratch-owned matrix.
func meanAggregate(x *tensor.Matrix, adj [][]int, sc *tensor.Scratch) *tensor.Matrix {
	return meanAggregateInto(sc.Get(x.Rows, x.Cols), x, adj)
}

// meanAggregateInto is meanAggregate into a caller-supplied zeroed matrix.
func meanAggregateInto(m *tensor.Matrix, x *tensor.Matrix, adj [][]int) *tensor.Matrix {
	for i, nb := range adj {
		if len(nb) == 0 {
			continue
		}
		dst := m.Row(i)
		for _, j := range nb {
			tensor.Axpy(1, x.Row(j), dst)
		}
		inv := 1 / float64(len(nb))
		for k := range dst {
			dst[k] *= inv
		}
	}
	return m
}

// ForwardScratch runs the layer on node features x with adjacency adj,
// returning the output embedding and a cache for BackwardSink. All matrix
// intermediates are drawn from sc (nil allocates); the cache references
// them, so sc must not be Reset until the matching backward pass has run.
func (l *SAGEConv) ForwardScratch(x *tensor.Matrix, adj [][]int, sc *tensor.Scratch) (*tensor.Matrix, *sageCache) {
	mx := meanAggregate(x, adj, sc)
	y := tensor.MatMulInto(sc.Get(x.Rows, l.Out), x, l.W1.Value)
	tensor.MatMulAddInto(y, mx, l.W2.Value)

	c := &sageCache{x: x, mx: mx, adj: adj, norms: make([]float64, y.Rows), skip: make([]bool, y.Rows)}
	h := y // normalize in place; y is not needed un-normalized
	if l.NoNorm {
		for i := range c.skip {
			c.skip[i] = true
			c.norms[i] = 1
		}
		c.h = h
		return h, c
	}
	for i := 0; i < h.Rows; i++ {
		r := h.Row(i)
		var s float64
		for _, v := range r {
			s += v * v
		}
		n := math.Sqrt(s)
		if n < normEps {
			c.norms[i] = 1
			c.skip[i] = true
			continue
		}
		c.norms[i] = n
		inv := 1 / n
		for j := range r {
			r[j] *= inv
		}
	}
	c.h = h
	return h, c
}

// BackwardSink accumulates parameter gradients from dH (gradient w.r.t. the
// layer output) into gb (nil → Param.Grad) and returns dX (gradient w.r.t.
// the layer input), with intermediates drawn from sc (nil allocates). It does
// not touch any shared state, so concurrent samples may run it against
// distinct sinks.
func (l *SAGEConv) BackwardSink(c *sageCache, dH *tensor.Matrix, gb *tensor.GradBuf, sc *tensor.Scratch) *tensor.Matrix {
	// Through L2 normalization: for h = y/r,
	// dY = dH/r - h·(h·dH)/r; skipped rows pass dH through unchanged.
	dY := sc.Get(dH.Rows, dH.Cols)
	for i := 0; i < dH.Rows; i++ {
		src := dH.Row(i)
		dst := dY.Row(i)
		if c.skip[i] {
			copy(dst, src)
			continue
		}
		h := c.h.Row(i)
		dot := tensor.Dot(h, src)
		invR := 1 / c.norms[i]
		for j := range dst {
			dst[j] = (src[j] - h[j]*dot) * invR
		}
	}

	// dW1 += Xᵀ·dY ; dW2 += M(X)ᵀ·dY
	tensor.MatMulATBAdd(gb.Grad(l.W1), c.x, dY)
	tensor.MatMulATBAdd(gb.Grad(l.W2), c.mx, dY)

	// dX from the self path.
	dX := tensor.MatMulABTInto(sc.Get(dY.Rows, l.In), dY, l.W1.Value)
	// dX from the neighbour path: dM = dY·W2ᵀ, then scatter means back.
	dM := tensor.MatMulABTInto(sc.Get(dY.Rows, l.In), dY, l.W2.Value)
	for i, nb := range c.adj {
		if len(nb) == 0 {
			continue
		}
		inv := 1 / float64(len(nb))
		src := dM.Row(i)
		for _, j := range nb {
			tensor.Axpy(inv, src, dX.Row(j))
		}
	}
	return dX
}

// Encoder stacks d SAGEConv layers: the shared GNN backbone f(;α) of the
// multi-platform predictor.
type Encoder struct {
	Layers []*SAGEConv
}

// NewEncoder builds a backbone with the given layer widths: in → hidden →
// ... → hidden, `depth` layers total.
func NewEncoder(in, hidden, depth int, rng *rand.Rand) *Encoder {
	e := &Encoder{}
	cur := in
	for i := 0; i < depth; i++ {
		e.Layers = append(e.Layers, NewSAGEConv("sage"+string(rune('0'+i)), cur, hidden, rng))
		cur = hidden
	}
	return e
}

// NewEncoderNoFinalNorm is NewEncoder with L2 normalization disabled on the
// last layer, preserving per-node magnitudes for additive (sum) readouts.
func NewEncoderNoFinalNorm(in, hidden, depth int, rng *rand.Rand) *Encoder {
	e := NewEncoder(in, hidden, depth, rng)
	e.Layers[len(e.Layers)-1].NoNorm = true
	return e
}

// Params returns all backbone parameters.
func (e *Encoder) Params() []*tensor.Param {
	var ps []*tensor.Param
	for _, l := range e.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// EncCache chains per-layer caches.
type EncCache struct {
	caches []*sageCache
}

// ForwardScratch runs the full backbone with intermediates drawn from sc
// (nil allocates); the returned cache references scratch matrices.
func (e *Encoder) ForwardScratch(x *tensor.Matrix, adj [][]int, sc *tensor.Scratch) (*tensor.Matrix, *EncCache) {
	c := &EncCache{caches: make([]*sageCache, 0, len(e.Layers))}
	h := x
	for _, l := range e.Layers {
		var lc *sageCache
		h, lc = l.ForwardScratch(h, adj, sc)
		c.caches = append(c.caches, lc)
	}
	return h, c
}

// BackwardSink propagates dH through all layers, accumulating gradients
// into gb (nil → Param.Grad), and returns the gradient w.r.t. the input
// features. Intermediates are drawn from sc (nil allocates).
func (e *Encoder) BackwardSink(c *EncCache, dH *tensor.Matrix, gb *tensor.GradBuf, sc *tensor.Scratch) *tensor.Matrix {
	for i := len(e.Layers) - 1; i >= 0; i-- {
		dH = e.Layers[i].BackwardSink(c.caches[i], dH, gb, sc)
	}
	return dH
}

// SumPoolScratch reduces node embeddings to a single graph vector (the Σ of
// Eq. 5), returning a 1×d matrix drawn from sc (nil allocates).
func SumPoolScratch(h *tensor.Matrix, sc *tensor.Scratch) *tensor.Matrix {
	out := sc.Get(1, h.Cols)
	dst := out.Row(0)
	for i := 0; i < h.Rows; i++ {
		tensor.Axpy(1, h.Row(i), dst)
	}
	return out
}

// SumPoolSegmentsScratch reduces a packed batch of node embeddings to one
// graph vector per segment: segs holds B+1 ascending row offsets and output
// row g sums h rows [segs[g], segs[g+1]). Each row's accumulation visits
// node rows in ascending order, exactly like SumPoolScratch over that graph
// alone, so the pooled vectors are bit-identical to B independent calls.
// The output draws from the capacity pool so varying batch widths reuse one
// buffer.
func SumPoolSegmentsScratch(h *tensor.Matrix, segs []int, sc *tensor.Scratch) *tensor.Matrix {
	out := sc.GetAtLeast(len(segs)-1, h.Cols)
	for g := 0; g < len(segs)-1; g++ {
		dst := out.Row(g)
		for i := segs[g]; i < segs[g+1]; i++ {
			tensor.Axpy(1, h.Row(i), dst)
		}
	}
	return out
}

// SumPoolBackwardScratch broadcasts the pooled gradient back to every node
// row, into a matrix drawn from sc (nil allocates).
func SumPoolBackwardScratch(dPool *tensor.Matrix, numNodes int, sc *tensor.Scratch) *tensor.Matrix {
	out := sc.Get(numNodes, dPool.Cols)
	src := dPool.Row(0)
	for i := 0; i < numNodes; i++ {
		copy(out.Row(i), src)
	}
	return out
}
