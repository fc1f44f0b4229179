package gnn

import (
	"math"

	"nnlqp/internal/tensor"
)

// This file is the fused inference path for SAGEConv. The layer's two
// kernel passes
//
//	y  = x·W1        (self transform)
//	y += mx·W2       (neighbour transform)
//
// become a single matmul over the concatenated operand [x|mx] (n×2In)
// against the stacked weights [W1;W2] (2In×Out). Bit-identity: for every
// output element the fused kernel accumulates k ascending over [0,2In) —
// all x·W1 terms first (k < In), then all mx·W2 terms — which is exactly
// the per-element accumulation order of the two sequential matmuls, with
// the identical zero-skip on the same operand elements. Kernel invocations
// halve and the packed b-panel is reused across twice the inner dimension.
//
// Adjacency rides along in CSR form — offsets plus one flat neighbour
// array — replacing the pointer-chasing [][]int on the hot path. Neighbour
// order is preserved verbatim, so the mean aggregation visits rows in the
// same order and stays bit-identical.

// CSR is a flattened adjacency list: node i's neighbours are
// Idx[Off[i]:Off[i+1]], in the original adjacency order. The zero value is
// empty; Reset re-seeds it for reuse without reallocating.
type CSR struct {
	Off []int32
	Idx []int32
}

// Reset empties the structure, keeping capacity.
func (c *CSR) Reset() {
	if cap(c.Off) == 0 {
		c.Off = append(c.Off, 0)
	} else {
		c.Off = c.Off[:1]
		c.Off[0] = 0
	}
	c.Idx = c.Idx[:0]
}

// Neighbors returns node i's neighbour indices.
func (c *CSR) Neighbors(i int) []int32 { return c.Idx[c.Off[i]:c.Off[i+1]] }

// AppendGraph appends one graph's adjacency with every neighbour index
// shifted by base — the block-diagonal packing used by batched prediction
// (base = the graph's node-range start; pass 0 for a solo graph).
func (c *CSR) AppendGraph(adj [][]int, base int) {
	if len(c.Off) == 0 {
		c.Off = append(c.Off, 0)
	}
	for _, nb := range adj {
		for _, j := range nb {
			c.Idx = append(c.Idx, int32(j+base))
		}
		c.Off = append(c.Off, int32(len(c.Idx)))
	}
}

// StackedWeights copies [W1;W2] into dst (2In×Out), allocating when dst is
// nil or mis-shaped. Callers that stack per generation (core's weight plan)
// pass a cached dst; per-call users draw one from scratch.
func (l *SAGEConv) StackedWeights(dst *tensor.Matrix) *tensor.Matrix {
	if dst == nil || dst.Rows != 2*l.In || dst.Cols != l.Out {
		dst = tensor.NewMatrix(2*l.In, l.Out)
	}
	half := l.In * l.Out
	copy(dst.Data[:half], l.W1.Value.Data)
	copy(dst.Data[half:], l.W2.Value.Data)
	return dst
}

// concatMeanCSR fills xc (n×2w) with [x | mean-aggregate(x)]: the left half
// copies x's rows, the right half accumulates each node's neighbour mean in
// CSR order — zeroed first, then Axpy per neighbour, then scaled, the exact
// floating-point sequence of meanAggregateInto (so a -0 feature survives
// identically). xc may come from the raw capacity pool: every element is
// written here.
func concatMeanCSR(xc, x *tensor.Matrix, csr *CSR) {
	w := x.Cols
	for i := 0; i < x.Rows; i++ {
		r := xc.Row(i)
		copy(r[:w], x.Row(i))
		agg := r[w:]
		for k := range agg {
			agg[k] = 0
		}
		nb := csr.Neighbors(i)
		if len(nb) == 0 {
			continue
		}
		for _, j := range nb {
			tensor.Axpy(1, x.Row(int(j)), agg)
		}
		inv := 1 / float64(len(nb))
		for k := range agg {
			agg[k] *= inv
		}
	}
}

// l2NormalizeRowsInfer normalizes each row to unit L2 norm in place,
// leaving near-zero rows untouched — the normalization of ForwardScratch
// without the per-row norms the backward pass keeps.
func l2NormalizeRowsInfer(h *tensor.Matrix) {
	for i := 0; i < h.Rows; i++ {
		r := h.Row(i)
		var s float64
		for _, v := range r {
			s += v * v
		}
		n := math.Sqrt(s)
		if n < normEps {
			continue
		}
		inv := 1 / n
		for j := range r {
			r[j] *= inv
		}
	}
}

// ForwardInferCSR is the fused inference forward: one concat fill, one
// matmul against the stacked weights, one normalization pass. stacked must
// be the layer's StackedWeights result (pass nil to stack into scratch per
// call). Outputs are bit-identical to ForwardScratch.
//
// It is also the batched forward: a micro-batch of B graphs packed into one
// (Σ nodes)×In matrix with a block-diagonal CSR (AppendGraph offsets each
// graph's neighbour indices by its node-range start) goes through in a
// single call, and every row comes out bit-identical to the per-graph
// forward — rows of a matmul, the mean aggregation and the L2 normalization
// are all row-independent. Intermediates draw from the capacity pool, so
// varying batch compositions stay allocation-free once the arena has seen
// the widest one.
func (l *SAGEConv) ForwardInferCSR(x *tensor.Matrix, csr *CSR, stacked *tensor.Matrix, sc *tensor.Scratch) *tensor.Matrix {
	if stacked == nil {
		stacked = l.StackedWeights(sc.GetAtLeastRaw(2*l.In, l.Out))
	}
	xc := sc.GetAtLeastRaw(x.Rows, 2*x.Cols)
	concatMeanCSR(xc, x, csr)
	// MatMulIntoPooled zeroes the output before accumulating, so the raw
	// buffer is safe here too.
	h := tensor.MatMulIntoPooled(sc.GetAtLeastRaw(x.Rows, l.Out), xc, stacked)
	if !l.NoNorm {
		l2NormalizeRowsInfer(h)
	}
	return h
}

// ForwardInferCSR runs the full backbone through the fused per-layer
// forward. stacked holds one StackedWeights matrix per layer (nil stacks
// into scratch per call — core's serving path passes its per-generation
// cache instead).
func (e *Encoder) ForwardInferCSR(x *tensor.Matrix, csr *CSR, stacked []*tensor.Matrix, sc *tensor.Scratch) *tensor.Matrix {
	h := x
	for i, l := range e.Layers {
		var w *tensor.Matrix
		if stacked != nil {
			w = stacked[i]
		}
		h = l.ForwardInferCSR(h, csr, w, sc)
	}
	return h
}

// StackedWeightsAll returns freshly allocated stacked weights for every
// layer — the per-generation snapshot core's weight plan caches.
func (e *Encoder) StackedWeightsAll() []*tensor.Matrix {
	ws := make([]*tensor.Matrix, len(e.Layers))
	for i, l := range e.Layers {
		ws[i] = l.StackedWeights(nil)
	}
	return ws
}
