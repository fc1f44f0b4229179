package gnn

import (
	"math/rand"

	"nnlqp/internal/tensor"
)

// Linear is a fully connected layer Y = X·W + b.
type Linear struct {
	W *tensor.Param
	B *tensor.Param
}

// NewLinear allocates a layer with Xavier-initialized weights and zero bias.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		W: tensor.NewParam(name+".W", in, out),
		B: tensor.NewParam(name+".b", 1, out),
	}
	l.W.Value.XavierInit(rng)
	return l
}

// Params returns the learnable parameters.
func (l *Linear) Params() []*tensor.Param { return []*tensor.Param{l.W, l.B} }

type linearCache struct{ x *tensor.Matrix }

// ForwardScratch computes X·W + b with the output drawn from sc (nil
// allocates), returning a cache for BackwardSink.
func (l *Linear) ForwardScratch(x *tensor.Matrix, sc *tensor.Scratch) (*tensor.Matrix, *linearCache) {
	y := tensor.MatMulInto(sc.Get(x.Rows, l.W.Value.Cols), x, l.W.Value)
	b := l.B.Value.Row(0)
	for i := 0; i < y.Rows; i++ {
		tensor.Axpy(1, b, y.Row(i))
	}
	return y, &linearCache{x: x}
}

// ForwardInfer computes X·W + b with no backward cache, through the pooled
// row-parallel matmul (serial for small inputs); allocation-free once sc is
// warm (the output draws from the capacity pool, so batched row counts reuse
// one buffer). Bit-identical to ForwardScratch row by row, for any number of
// rows.
func (l *Linear) ForwardInfer(x *tensor.Matrix, sc *tensor.Scratch) *tensor.Matrix {
	y := tensor.MatMulIntoPooled(sc.GetAtLeast(x.Rows, l.W.Value.Cols), x, l.W.Value)
	b := l.B.Value.Row(0)
	for i := 0; i < y.Rows; i++ {
		tensor.Axpy(1, b, y.Row(i))
	}
	return y
}

// BackwardSink accumulates dW, dB into gb (nil → Param.Grad) and returns dX
// drawn from sc (nil allocates).
func (l *Linear) BackwardSink(c *linearCache, dY *tensor.Matrix, gb *tensor.GradBuf, sc *tensor.Scratch) *tensor.Matrix {
	tensor.MatMulATBAdd(gb.Grad(l.W), c.x, dY)
	db := gb.Grad(l.B).Row(0)
	for i := 0; i < dY.Rows; i++ {
		tensor.Axpy(1, dY.Row(i), db)
	}
	return tensor.MatMulABTInto(sc.Get(dY.Rows, l.W.Value.Rows), dY, l.W.Value)
}

// Head is the per-platform prediction head g(;β) of Fig. 3: FC → ReLU →
// Dropout → FC → ReLU → FC(1), producing a scalar latency prediction.
type Head struct {
	FC1, FC2, FC3 *Linear
	DropoutP      float64
}

// NewHead builds a head over embedding width in.
func NewHead(name string, in, hidden int, dropout float64, rng *rand.Rand) *Head {
	return &Head{
		FC1:      NewLinear(name+".fc1", in, hidden, rng),
		FC2:      NewLinear(name+".fc2", hidden, hidden, rng),
		FC3:      NewLinear(name+".fc3", hidden, 1, rng),
		DropoutP: dropout,
	}
}

// Params returns the head's learnable parameters.
func (h *Head) Params() []*tensor.Param {
	var ps []*tensor.Param
	ps = append(ps, h.FC1.Params()...)
	ps = append(ps, h.FC2.Params()...)
	ps = append(ps, h.FC3.Params()...)
	return ps
}

type headCache struct {
	c1, c2, c3 *linearCache
	relu1Mask  []bool
	relu2Mask  []bool
	dropMask   []float64 // nil in eval mode
}

// ForwardScratch runs the head on a 1×in (or n×in) embedding with matrix
// intermediates drawn from sc (nil allocates). In training mode dropout is
// sampled from rng with inverted scaling; in eval mode dropout is the
// identity. The returned cache, for BackwardSink, references scratch
// matrices.
func (h *Head) ForwardScratch(x *tensor.Matrix, training bool, rng *rand.Rand, sc *tensor.Scratch) (*tensor.Matrix, *headCache) {
	c := &headCache{}
	var y *tensor.Matrix
	y, c.c1 = h.FC1.ForwardScratch(x, sc)
	c.relu1Mask = reluInPlace(y)
	if training && h.DropoutP > 0 {
		c.dropMask = make([]float64, len(y.Data))
		keep := 1 - h.DropoutP
		for i := range y.Data {
			if rng.Float64() < keep {
				c.dropMask[i] = 1 / keep
			}
			y.Data[i] *= c.dropMask[i]
		}
	}
	y, c.c2 = h.FC2.ForwardScratch(y, sc)
	c.relu2Mask = reluInPlace(y)
	y, c.c3 = h.FC3.ForwardScratch(y, sc)
	return y, c
}

// ForwardInfer is the eval-mode forward without the backward cache: dropout
// is the identity, ReLUs clamp in place without recording masks, and all
// matrix work stays on the calling goroutine drawing from sc —
// allocation-free once sc is warm. Bit-identical to
// ForwardScratch(x, false, nil, sc). A B×in input evaluates the head on B
// embeddings in one pass (the batched serving path); every FC layer and
// ReLU is row-independent, so row g matches the 1×in forward of that
// embedding bitwise.
func (h *Head) ForwardInfer(x *tensor.Matrix, sc *tensor.Scratch) *tensor.Matrix {
	y := h.FC1.ForwardInfer(x, sc)
	reluClampInPlace(y)
	y = h.FC2.ForwardInfer(y, sc)
	reluClampInPlace(y)
	return h.FC3.ForwardInfer(y, sc)
}

// BackwardSink accumulates gradients into gb (nil → Param.Grad) and returns
// dX, with intermediates drawn from sc (nil allocates).
func (h *Head) BackwardSink(c *headCache, dY *tensor.Matrix, gb *tensor.GradBuf, sc *tensor.Scratch) *tensor.Matrix {
	d := h.FC3.BackwardSink(c.c3, dY, gb, sc)
	applyMask(d, c.relu2Mask)
	d = h.FC2.BackwardSink(c.c2, d, gb, sc)
	if c.dropMask != nil {
		for i := range d.Data {
			d.Data[i] *= c.dropMask[i]
		}
	}
	applyMask(d, c.relu1Mask)
	return h.FC1.BackwardSink(c.c1, d, gb, sc)
}

// reluInPlace applies ReLU and returns the positive mask.
func reluInPlace(m *tensor.Matrix) []bool {
	mask := make([]bool, len(m.Data))
	for i, v := range m.Data {
		if v > 0 {
			mask[i] = true
		} else {
			m.Data[i] = 0
		}
	}
	return mask
}

// reluClampInPlace applies ReLU without recording a mask (inference only).
func reluClampInPlace(m *tensor.Matrix) {
	for i, v := range m.Data {
		if v < 0 {
			m.Data[i] = 0
		}
	}
}

func applyMask(m *tensor.Matrix, mask []bool) {
	for i := range m.Data {
		if !mask[i] {
			m.Data[i] = 0
		}
	}
}
