package gnn

import (
	"math/rand"

	"nnlqp/internal/tensor"
)

// The unfused, allocating entry points: each runs the training-path pass
// (ForwardScratch, BackwardSink, SumPoolScratch, ...) with no scratch and no
// gradient sink, and the [][]int adjacency forms of the inference forward
// build their CSR per call. The fused, scratch-backed and batched paths are
// checked against them.

// Forward runs the layer on node features x with adjacency adj, returning
// the output embedding and a cache for Backward.
func (l *SAGEConv) Forward(x *tensor.Matrix, adj [][]int) (*tensor.Matrix, *sageCache) {
	return l.ForwardScratch(x, adj, nil)
}

// ForwardInfer is ForwardInferCSR over a [][]int adjacency.
func (l *SAGEConv) ForwardInfer(x *tensor.Matrix, adj [][]int, sc *tensor.Scratch) *tensor.Matrix {
	var csr CSR
	csr.AppendGraph(adj, 0)
	return l.ForwardInferCSR(x, &csr, nil, sc)
}

// Backward accumulates parameter gradients from dH into Param.Grad and
// returns dX.
func (l *SAGEConv) Backward(c *sageCache, dH *tensor.Matrix) *tensor.Matrix {
	return l.BackwardSink(c, dH, nil, nil)
}

// Forward runs the full backbone.
func (e *Encoder) Forward(x *tensor.Matrix, adj [][]int) (*tensor.Matrix, *EncCache) {
	return e.ForwardScratch(x, adj, nil)
}

// ForwardInfer is ForwardInferCSR over a [][]int adjacency.
func (e *Encoder) ForwardInfer(x *tensor.Matrix, adj [][]int, sc *tensor.Scratch) *tensor.Matrix {
	var csr CSR
	csr.AppendGraph(adj, 0)
	return e.ForwardInferCSR(x, &csr, nil, sc)
}

// Backward propagates dH through all layers into Param.Grad and returns the
// gradient w.r.t. the input features.
func (e *Encoder) Backward(c *EncCache, dH *tensor.Matrix) *tensor.Matrix {
	return e.BackwardSink(c, dH, nil, nil)
}

// SumPool reduces node embeddings to a 1×d graph vector.
func SumPool(h *tensor.Matrix) *tensor.Matrix { return SumPoolScratch(h, nil) }

// SumPoolBackward broadcasts the pooled gradient back to every node row.
func SumPoolBackward(dPool *tensor.Matrix, numNodes int) *tensor.Matrix {
	return SumPoolBackwardScratch(dPool, numNodes, nil)
}

// Forward computes X·W + b.
func (l *Linear) Forward(x *tensor.Matrix) (*tensor.Matrix, *linearCache) {
	return l.ForwardScratch(x, nil)
}

// Backward accumulates dW, dB into Param.Grad and returns dX.
func (l *Linear) Backward(c *linearCache, dY *tensor.Matrix) *tensor.Matrix {
	return l.BackwardSink(c, dY, nil, nil)
}

// Forward runs the head with no scratch.
func (h *Head) Forward(x *tensor.Matrix, training bool, rng *rand.Rand) (*tensor.Matrix, *headCache) {
	return h.ForwardScratch(x, training, rng, nil)
}

// Backward accumulates gradients into Param.Grad and returns dX.
func (h *Head) Backward(c *headCache, dY *tensor.Matrix) *tensor.Matrix {
	return h.BackwardSink(c, dY, nil, nil)
}
