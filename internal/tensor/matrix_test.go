package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatMulSmall(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := MatMul(a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("c[%d][%d] = %f", i, j, c.At(i, j))
			}
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on shape mismatch")
		}
	}()
	MatMul(NewMatrix(2, 3), NewMatrix(2, 3))
}

func naiveMatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func matricesClose(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func TestMatMulParallelMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Large enough to exceed parallelThreshold.
	a := randomMatrix(rng, 96, 80)
	b := randomMatrix(rng, 80, 96)
	if 96*80*96 < parallelThreshold {
		t.Skip("test sizes no longer exceed threshold")
	}
	if !matricesClose(MatMul(a, b), naiveMatMul(a, b), 1e-9) {
		t.Fatal("parallel matmul disagrees with naive")
	}
}

func TestMatMulATBAndABT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomMatrix(rng, 7, 5)
	b := randomMatrix(rng, 7, 4)
	atb := MatMulATBAdd(NewMatrix(a.Cols, b.Cols), a, b)
	// Reference: transpose then multiply.
	at := NewMatrix(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	if !matricesClose(atb, naiveMatMul(at, b), 1e-12) {
		t.Fatal("MatMulATBAdd wrong")
	}

	c := randomMatrix(rng, 6, 5)
	d := randomMatrix(rng, 9, 5)
	// Dirty out: ABTInto overwrites every cell.
	abt := NewMatrix(c.Rows, d.Rows)
	for i := range abt.Data {
		abt.Data[i] = 99
	}
	MatMulABTInto(abt, c, d)
	dt := NewMatrix(d.Cols, d.Rows)
	for i := 0; i < d.Rows; i++ {
		for j := 0; j < d.Cols; j++ {
			dt.Set(j, i, d.At(i, j))
		}
	}
	if !matricesClose(abt, naiveMatMul(c, dt), 1e-12) {
		t.Fatal("MatMulABTInto wrong")
	}
}

func TestMatrixHelpers(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatal("At/Set wrong")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Fatal("Clone shares data")
	}
	m.AddInPlace(c)
	if m.At(0, 0) != 9 || m.At(1, 2) != 10 {
		t.Fatal("AddInPlace wrong")
	}
	m.Scale(2)
	if m.At(1, 2) != 20 {
		t.Fatal("Scale wrong")
	}
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("Zero wrong")
		}
	}
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
	y := []float64{1, 1}
	Axpy(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatal("Axpy wrong")
	}
}

func TestXavierInitRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMatrix(30, 40)
	m.XavierInit(rng)
	limit := math.Sqrt(6.0 / 70.0)
	var nonzero int
	for _, v := range m.Data {
		if math.Abs(v) > limit {
			t.Fatalf("value %f outside xavier limit %f", v, limit)
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < len(m.Data)/2 {
		t.Fatal("init left too many zeros")
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ, exercised through the three product kernels.
func TestMatMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, p, q := 2+rng.Intn(6), 2+rng.Intn(6), 2+rng.Intn(6)
		a := randomMatrix(rng, n, p)
		b := randomMatrix(rng, p, q)
		ab := MatMul(a, b)
		// (A·B)[i][j] == MatMulABTInto(A, Bᵀ)[i][j]
		bt := NewMatrix(q, p)
		for i := 0; i < p; i++ {
			for j := 0; j < q; j++ {
				bt.Set(j, i, b.At(i, j))
			}
		}
		return matricesClose(ab, MatMulABTInto(NewMatrix(n, q), a, bt), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(w) = ||w - target||² with Adam; it must converge.
	p := NewParam("w", 1, 4)
	target := []float64{1, -2, 3, 0.5}
	opt := NewAdam(0.05)
	for step := 0; step < 2000; step++ {
		p.ZeroGrad()
		for i := range target {
			p.Grad.Data[i] = 2 * (p.Value.Data[i] - target[i])
		}
		opt.Step([]*Param{p})
	}
	for i := range target {
		if math.Abs(p.Value.Data[i]-target[i]) > 1e-3 {
			t.Fatalf("w[%d] = %f, want %f", i, p.Value.Data[i], target[i])
		}
	}
}

func TestAdamResetClearsState(t *testing.T) {
	p := NewParam("w", 1, 1)
	opt := NewAdam(0.1)
	p.Grad.Data[0] = 1
	opt.Step([]*Param{p})
	v1 := p.Value.Data[0]
	opt.Reset()
	// After reset, the same single step from the same state reproduces the
	// same update magnitude.
	p2 := NewParam("w2", 1, 1)
	p2.Grad.Data[0] = 1
	opt.Step([]*Param{p2})
	if math.Abs(p2.Value.Data[0]-v1) > 1e-12 {
		t.Fatalf("reset did not clear optimizer state: %f vs %f", p2.Value.Data[0], v1)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}
