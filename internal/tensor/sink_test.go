package tensor

import (
	"math/rand"
	"sync"
	"testing"
)

// TestScratchGetAtLeast covers the capacity pool: distinct row counts with a
// shared column width reuse (and grow) one buffer per outstanding handout,
// the result is always zeroed at the requested shape, and steady state over
// previously seen shapes allocates nothing.
func TestScratchGetAtLeast(t *testing.T) {
	sc := NewScratch()
	a := sc.GetAtLeast(4, 3)
	if a.Rows != 4 || a.Cols != 3 || len(a.Data) != 12 {
		t.Fatalf("shape %dx%d len %d, want 4x3 len 12", a.Rows, a.Cols, len(a.Data))
	}
	for i := range a.Data {
		a.Data[i] = 7
	}
	sc.Reset()

	// Smaller request after Reset: same buffer, re-sliced and zeroed.
	b := sc.GetAtLeast(2, 3)
	if b.Rows != 2 || len(b.Data) != 6 {
		t.Fatalf("shape %dx%d len %d, want 2x3 len 6", b.Rows, b.Cols, len(b.Data))
	}
	for i, v := range b.Data {
		if v != 0 {
			t.Fatalf("stale value %v at %d after reuse", v, i)
		}
	}
	// Second handout in the same cycle must not alias the first.
	c := sc.GetAtLeast(3, 3)
	b.Data[0] = 1
	if c.Data[0] != 0 {
		t.Fatal("distinct handouts alias one buffer")
	}
	sc.Reset()

	// Growth: a larger row count re-slices (growing once), then repeats of
	// any smaller-or-equal shape are allocation-free.
	if m := sc.GetAtLeast(16, 3); m.Rows != 16 {
		t.Fatalf("rows %d, want 16", m.Rows)
	}
	sc.Reset()
	avg := testing.AllocsPerRun(50, func() {
		sc.GetAtLeast(10, 3)
		sc.GetAtLeast(16, 3)
		sc.Reset()
	})
	if avg != 0 {
		t.Fatalf("steady-state GetAtLeast allocates %.1f/op, want 0", avg)
	}

	// nil receiver falls back to plain allocation.
	var nilSc *Scratch
	if m := nilSc.GetAtLeast(2, 2); m.Rows != 2 || m.Cols != 2 {
		t.Fatal("nil scratch GetAtLeast broken")
	}
}

func TestGradBufNilFallsBackToParamGrad(t *testing.T) {
	p := NewParam("p", 2, 2)
	var b *GradBuf
	g := b.Grad(p)
	if g != p.Grad {
		t.Fatal("nil GradBuf must return Param.Grad")
	}
	b.Reset()   // must not panic
	b.AddInto() // must not panic
}

func TestGradBufCycleZeroesOnFirstTouch(t *testing.T) {
	p := NewParam("p", 1, 3)
	b := NewGradBuf()
	g := b.Grad(p)
	g.Data[0] = 7
	if got := b.Grad(p); got != g {
		t.Fatal("same cycle must return the same buffer")
	}
	if g.Data[0] != 7 {
		t.Fatal("second Grad in one cycle must not zero")
	}
	// One touch lists p once: AddInto adds the buffer into p.Grad once.
	b.AddInto()
	if p.Grad.Data[0] != 7 {
		t.Fatalf("after AddInto: Grad[0] = %v, want 7 (p touched once)", p.Grad.Data[0])
	}
	b.Reset()
	b.AddInto()
	if p.Grad.Data[0] != 7 {
		t.Fatal("Reset must clear touched: AddInto after Reset changed Grad")
	}
	if g2 := b.Grad(p); g2.Data[0] != 0 {
		t.Fatal("first touch of a new cycle must zero")
	}
}

// TestGradSinkReduceMatchesSequential verifies that reducing per-slot
// contributions equals sequential accumulation into Param.Grad bit for bit.
func TestGradSinkReduceMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := NewParam("p", 3, 4)
	const n = 7
	contrib := make([]*Matrix, n)
	for i := range contrib {
		contrib[i] = NewMatrix(3, 4)
		for j := range contrib[i].Data {
			contrib[i].Data[j] = rng.NormFloat64()
		}
	}
	// Sequential reference.
	p.ZeroGrad()
	for _, c := range contrib {
		p.Grad.AddInPlace(c)
	}
	want := append([]float64(nil), p.Grad.Data...)

	// Sink path, slots filled out of order (as concurrent workers would).
	sink := NewGradSink(n)
	for _, i := range rng.Perm(n) {
		sink.Slot(i).Grad(p).AddInPlace(contrib[i])
	}
	p.ZeroGrad()
	sink.Reduce()
	for j, v := range p.Grad.Data {
		if v != want[j] {
			t.Fatalf("reduce[%d] = %v, want %v (bit-exact)", j, v, want[j])
		}
	}

	// A second cycle after Reset must not see stale data.
	sink.Reset()
	sink.Slot(0).Grad(p).Set(0, 0, 1)
	p.ZeroGrad()
	sink.Reduce()
	if p.Grad.At(0, 0) != 1 {
		t.Fatalf("second cycle grad = %v", p.Grad.At(0, 0))
	}
	for j := 1; j < len(p.Grad.Data); j++ {
		if p.Grad.Data[j] != 0 {
			t.Fatal("stale contribution leaked across Reset")
		}
	}
}

func TestGradSinkConcurrentSlotWrites(t *testing.T) {
	p := NewParam("p", 8, 8)
	const n = 16
	sink := NewGradSink(n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := sink.Slot(i).Grad(p)
			for j := range g.Data {
				g.Data[j] = float64(i)
			}
		}(i)
	}
	wg.Wait()
	p.ZeroGrad()
	sink.Reduce()
	want := float64(n * (n - 1) / 2)
	for _, v := range p.Grad.Data {
		if v != want {
			t.Fatalf("reduced = %v, want %v", v, want)
		}
	}
}

func TestScratchReuseAndNil(t *testing.T) {
	var nilS *Scratch
	m := nilS.Get(2, 3)
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatal("nil scratch must allocate")
	}
	nilS.Reset() // no-op

	s := NewScratch()
	a := s.Get(4, 4)
	b := s.Get(4, 4)
	if a == b {
		t.Fatal("two Gets in one cycle must be distinct")
	}
	a.Data[0] = 5
	s.Reset()
	c := s.Get(4, 4)
	if c != a && c != b {
		t.Fatal("post-Reset Get should reuse a pooled matrix")
	}
	if c.Data[0] != 0 {
		t.Fatal("reused matrix must be zeroed")
	}
}

func TestMatMulIntoVariantsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomMatrix(rng, 5, 7)
	b := randomMatrix(rng, 7, 3)

	want := MatMul(a, b)
	got := MatMulInto(NewMatrix(5, 3), a, b)
	if !matricesClose(want, got, 0) {
		t.Fatal("MatMulInto disagrees with MatMul")
	}
	// AddInto on a non-zero out accumulates.
	acc := want.Clone()
	MatMulAddInto(acc, a, b)
	double := MatMul(a, b)
	double.Scale(2)
	if !matricesClose(acc, double, 1e-12) {
		t.Fatal("MatMulAddInto did not accumulate")
	}

}

func TestMatMulIntoShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want shape panic")
		}
	}()
	MatMulInto(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(3, 3))
}

func TestAdamStepSinkMatchesStep(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mkParams := func() []*Param {
		ps := []*Param{NewParam("a", 2, 3), NewParam("b", 1, 4)}
		r := rand.New(rand.NewSource(11))
		for _, p := range ps {
			for i := range p.Value.Data {
				p.Value.Data[i] = r.NormFloat64()
			}
		}
		return ps
	}
	grads := make([][]*Matrix, 4) // per sample, per param
	for s := range grads {
		grads[s] = []*Matrix{NewMatrix(2, 3), NewMatrix(1, 4)}
		for _, g := range grads[s] {
			for i := range g.Data {
				g.Data[i] = rng.NormFloat64()
			}
		}
	}

	// Reference: sequential accumulation + Step.
	ref := mkParams()
	optA := NewAdam(0.01)
	for _, p := range ref {
		p.ZeroGrad()
	}
	for _, sg := range grads {
		for i, p := range ref {
			p.Grad.AddInPlace(sg[i])
		}
	}
	optA.Step(ref)

	// Sink path.
	got := mkParams()
	optB := NewAdam(0.01)
	sink := NewGradSink(len(grads))
	for s, sg := range grads {
		for i, p := range got {
			sink.Slot(s).Grad(p).AddInPlace(sg[i])
		}
	}
	optB.StepSink(got, sink)

	for i := range ref {
		for j := range ref[i].Value.Data {
			if ref[i].Value.Data[j] != got[i].Value.Data[j] {
				t.Fatalf("param %d[%d]: %v vs %v", i, j, ref[i].Value.Data[j], got[i].Value.Data[j])
			}
		}
	}
}
