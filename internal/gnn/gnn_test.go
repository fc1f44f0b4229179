package gnn

import (
	"math"
	"math/rand"
	"testing"

	"nnlqp/internal/tensor"
)

// tinyInputs builds a 4-node line graph with 3-dim features.
func tinyInputs(rng *rand.Rand) (*tensor.Matrix, [][]int) {
	x := tensor.NewMatrix(4, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	adj := [][]int{{1}, {0, 2}, {1, 3}, {2}}
	return x, adj
}

func TestMeanAggregate(t *testing.T) {
	x := tensor.FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	adj := [][]int{{1, 2}, {0}, nil}
	m := meanAggregate(x, adj, nil)
	if m.At(0, 0) != 4 || m.At(0, 1) != 5 {
		t.Fatalf("mean row 0 = %v", m.Row(0))
	}
	if m.At(1, 0) != 1 || m.At(1, 1) != 2 {
		t.Fatalf("mean row 1 = %v", m.Row(1))
	}
	if m.At(2, 0) != 0 || m.At(2, 1) != 0 {
		t.Fatalf("isolated node should aggregate to zero: %v", m.Row(2))
	}
}

func TestSAGEForwardRowsAreUnitNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewSAGEConv("l", 3, 5, rng)
	x, adj := tinyInputs(rng)
	h, _ := l.Forward(x, adj)
	for i := 0; i < h.Rows; i++ {
		var s float64
		for _, v := range h.Row(i) {
			s += v * v
		}
		if math.Abs(math.Sqrt(s)-1) > 1e-9 {
			t.Fatalf("row %d norm = %f", i, math.Sqrt(s))
		}
	}
}

func TestSAGEZeroInputSkipsNormalization(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewSAGEConv("l", 3, 4, rng)
	x := tensor.NewMatrix(2, 3) // all zeros
	h, c := l.Forward(x, [][]int{{1}, {0}})
	for _, v := range h.Data {
		if v != 0 {
			t.Fatal("zero input should produce zero output")
		}
	}
	// Backward must not produce NaNs.
	dH := tensor.NewMatrix(2, 4)
	for i := range dH.Data {
		dH.Data[i] = 1
	}
	dX := l.Backward(c, dH)
	for _, v := range dX.Data {
		if math.IsNaN(v) {
			t.Fatal("NaN gradient on zero input")
		}
	}
}

// lossOf runs encoder+pool+head and returns a scalar loss = (pred-3)².
func lossOf(enc *Encoder, head *Head, x *tensor.Matrix, adj [][]int) float64 {
	h, _ := enc.Forward(x, adj)
	pooled := SumPool(h)
	pred, _ := head.Forward(pooled, false, nil)
	d := pred.At(0, 0) - 3
	return d * d
}

// backwardOf computes analytic gradients of the same loss.
func backwardOf(enc *Encoder, head *Head, x *tensor.Matrix, adj [][]int) {
	h, ec := enc.Forward(x, adj)
	pooled := SumPool(h)
	pred, hc := head.Forward(pooled, false, nil)
	dPred := tensor.NewMatrix(1, 1)
	dPred.Set(0, 0, 2*(pred.At(0, 0)-3))
	dPool := head.Backward(hc, dPred)
	dH := SumPoolBackward(dPool, h.Rows)
	enc.Backward(ec, dH)
}

// TestGradientCheck verifies every parameter's analytic gradient against a
// central finite difference through the full encoder+pool+head pipeline.
func TestGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	enc := NewEncoder(3, 4, 2, rng)
	head := NewHead("h", 4, 5, 0, rng)
	x, adj := tinyInputs(rng)

	params := append(enc.Params(), head.Params()...)
	for _, p := range params {
		p.ZeroGrad()
	}
	backwardOf(enc, head, x, adj)

	const eps = 1e-5
	for _, p := range params {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			lp := lossOf(enc, head, x, adj)
			p.Value.Data[i] = orig - eps
			lm := lossOf(enc, head, x, adj)
			p.Value.Data[i] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := p.Grad.Data[i]
			denom := math.Max(1e-6, math.Abs(numeric)+math.Abs(analytic))
			if math.Abs(numeric-analytic)/denom > 1e-4 {
				t.Fatalf("param %s[%d]: analytic %g vs numeric %g", p.Name, i, analytic, numeric)
			}
		}
	}
}

// TestGradientCheckInputs verifies dX against finite differences too.
func TestGradientCheckInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	enc := NewEncoder(3, 4, 2, rng)
	head := NewHead("h", 4, 5, 0, rng)
	x, adj := tinyInputs(rng)

	h, ec := enc.Forward(x, adj)
	pooled := SumPool(h)
	pred, hc := head.Forward(pooled, false, nil)
	dPred := tensor.NewMatrix(1, 1)
	dPred.Set(0, 0, 2*(pred.At(0, 0)-3))
	dPool := head.Backward(hc, dPred)
	dX := enc.Backward(ec, SumPoolBackward(dPool, h.Rows))

	const eps = 1e-5
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := lossOf(enc, head, x, adj)
		x.Data[i] = orig - eps
		lm := lossOf(enc, head, x, adj)
		x.Data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		analytic := dX.Data[i]
		denom := math.Max(1e-6, math.Abs(numeric)+math.Abs(analytic))
		if math.Abs(numeric-analytic)/denom > 1e-4 {
			t.Fatalf("x[%d]: analytic %g vs numeric %g", i, analytic, numeric)
		}
	}
}

// TestGradientCheckSinkScratch re-runs the finite-difference check through
// the re-entrant path: gradients into a GradBuf, intermediates from a
// Scratch reused across samples. The analytic gradients must match both the
// numeric ones and the legacy Param.Grad path bit for bit.
func TestGradientCheckSinkScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	enc := NewEncoder(3, 4, 2, rng)
	head := NewHead("h", 4, 5, 0, rng)
	x, adj := tinyInputs(rng)
	params := append(enc.Params(), head.Params()...)

	// Legacy path reference.
	for _, p := range params {
		p.ZeroGrad()
	}
	backwardOf(enc, head, x, adj)
	want := make(map[*tensor.Param][]float64)
	for _, p := range params {
		want[p] = append([]float64(nil), p.Grad.Data...)
	}

	gb := tensor.NewGradBuf()
	sc := tensor.NewScratch()
	run := func() {
		gb.Reset()
		h, ec := enc.ForwardScratch(x, adj, sc)
		pooled := SumPoolScratch(h, sc)
		pred, hc := head.ForwardScratch(pooled, false, nil, sc)
		dPred := sc.Get(1, 1)
		dPred.Set(0, 0, 2*(pred.At(0, 0)-3))
		dPool := head.BackwardSink(hc, dPred, gb, sc)
		enc.BackwardSink(ec, SumPoolBackwardScratch(dPool, h.Rows, sc), gb, sc)
		sc.Reset()
	}
	// Run twice: the second pass reuses pooled scratch matrices and a stale
	// GradBuf cycle, which must not change the result.
	run()
	run()

	const eps = 1e-5
	for _, p := range params {
		got := gb.Grad(p)
		for i := range p.Value.Data {
			if got.Data[i] != want[p][i] {
				t.Fatalf("param %s[%d]: sink %g != legacy %g", p.Name, i, got.Data[i], want[p][i])
			}
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			lp := lossOf(enc, head, x, adj)
			p.Value.Data[i] = orig - eps
			lm := lossOf(enc, head, x, adj)
			p.Value.Data[i] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := got.Data[i]
			denom := math.Max(1e-6, math.Abs(numeric)+math.Abs(analytic))
			if math.Abs(numeric-analytic)/denom > 1e-4 {
				t.Fatalf("param %s[%d]: analytic %g vs numeric %g", p.Name, i, analytic, numeric)
			}
		}
	}
}

func TestDropoutTrainEval(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	head := NewHead("h", 6, 8, 0.5, rng)
	x := tensor.NewMatrix(1, 6)
	for i := range x.Data {
		x.Data[i] = 1
	}
	// Eval mode is deterministic.
	a, _ := head.Forward(x, false, nil)
	b, _ := head.Forward(x, false, nil)
	if a.At(0, 0) != b.At(0, 0) {
		t.Fatal("eval mode should be deterministic")
	}
	// Training mode with dropout varies across rng draws.
	r1, _ := head.Forward(x, true, rand.New(rand.NewSource(1)))
	r2, _ := head.Forward(x, true, rand.New(rand.NewSource(2)))
	if r1.At(0, 0) == r2.At(0, 0) {
		t.Fatal("dropout should introduce stochasticity across seeds")
	}
	// Same seed reproduces.
	r3, _ := head.Forward(x, true, rand.New(rand.NewSource(1)))
	if r1.At(0, 0) != r3.At(0, 0) {
		t.Fatal("same dropout seed should reproduce")
	}
}

func TestSumPoolAndBackward(t *testing.T) {
	h := tensor.FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	p := SumPool(h)
	if p.At(0, 0) != 9 || p.At(0, 1) != 12 {
		t.Fatalf("pool = %v", p.Row(0))
	}
	d := tensor.FromRows([][]float64{{0.5, -1}})
	back := SumPoolBackward(d, 3)
	if back.Rows != 3 {
		t.Fatalf("backward rows = %d", back.Rows)
	}
	for i := 0; i < 3; i++ {
		if back.At(i, 0) != 0.5 || back.At(i, 1) != -1 {
			t.Fatalf("row %d = %v", i, back.Row(i))
		}
	}
}

func TestEncoderDepthAndDims(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	enc := NewEncoder(7, 11, 3, rng)
	if len(enc.Layers) != 3 {
		t.Fatalf("layers = %d", len(enc.Layers))
	}
	if out := enc.Layers[len(enc.Layers)-1].Out; out != 11 {
		t.Fatalf("output width = %d", out)
	}
	if len(enc.Params()) != 6 {
		t.Fatalf("params = %d, want 6 (2 per layer)", len(enc.Params()))
	}
	x := tensor.NewMatrix(5, 7)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	adj := [][]int{{1}, {0}, {3}, {2}, nil}
	h, _ := enc.Forward(x, adj)
	if h.Rows != 5 || h.Cols != 11 {
		t.Fatalf("output %dx%d", h.Rows, h.Cols)
	}
}

func TestTrainingReducesLossOnToyRegression(t *testing.T) {
	// Fit the pipeline to map a fixed small graph to target 2.5.
	rng := rand.New(rand.NewSource(4))
	enc := NewEncoder(3, 8, 2, rng)
	head := NewHead("h", 8, 8, 0, rng)
	x, adj := tinyInputs(rng)
	params := append(enc.Params(), head.Params()...)
	opt := tensor.NewAdam(0.01)

	loss0 := lossOf(enc, head, x, adj)
	for step := 0; step < 200; step++ {
		for _, p := range params {
			p.ZeroGrad()
		}
		backwardOf(enc, head, x, adj)
		opt.Step(params)
	}
	loss1 := lossOf(enc, head, x, adj)
	if loss1 > loss0/100 && loss1 > 1e-4 {
		t.Fatalf("training failed to reduce loss: %g -> %g", loss0, loss1)
	}
}
