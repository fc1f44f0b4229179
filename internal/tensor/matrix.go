// Package tensor provides the dense linear-algebra kernels, parameter
// containers and the Adam optimizer that the GNN predictor is built on —
// the reproduction's stand-in for PyTorch. Everything is float64 and
// deterministic; large matrix products are parallelized across goroutines.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dims %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices (all must share a length).
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("tensor: ragged rows")
		}
		copy(m.Row(i), r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero clears all elements in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// AddInPlace accumulates other into m.
func (m *Matrix) AddInPlace(other *Matrix) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("tensor: add shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	for i, v := range other.Data {
		m.Data[i] += v
	}
}

// Scale multiplies all elements in place.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// parallelThreshold is the multiply-add count above which a matmul fans out
// across goroutines; below it the goroutine overhead dominates.
const parallelThreshold = 1 << 17

// MatMulInto computes out = a·b into a caller-supplied (e.g. Scratch-owned)
// matrix, zeroing it first. Returns out.
func MatMulInto(out, a, b *Matrix) *Matrix {
	checkMatMulInto(out, a, b)
	out.Zero()
	return matMulAdd(out, a, b)
}

// MatMulAddInto computes out += a·b without zeroing, for fused
// self+neighbour transforms and gradient accumulation. Returns out.
func MatMulAddInto(out, a, b *Matrix) *Matrix {
	checkMatMulInto(out, a, b)
	return matMulAdd(out, a, b)
}

func checkMatMulInto(out, a, b *Matrix) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul-into shape mismatch %dx%d · %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
}

// matMulAdd accumulates a·b into out, fanning out across goroutines when the
// product is large enough to amortize them.
func matMulAdd(out, a, b *Matrix) *Matrix {
	work := a.Rows * a.Cols * b.Cols
	workers := runtime.GOMAXPROCS(0)
	if work < parallelThreshold || workers <= 1 {
		// Small product, or a single-core process: goroutine fan-out can only
		// add scheduling overhead and allocations over the in-place kernel.
		matMulRange(a, b, out, 0, a.Rows)
		return out
	}
	if workers > a.Rows {
		workers = a.Rows
	}
	var wg sync.WaitGroup
	chunk := (a.Rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > a.Rows {
			hi = a.Rows
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			matMulRange(a, b, out, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// Blocked-matmul tile sizes (float64 elements). A kc×jc panel of b is
// 128×512×8 B = 512 KiB, sized to stay L2-resident while every row of the
// current range streams against it; the jc-wide slice of an out row (4 KiB)
// stays in L1 across the kc accumulations.
const (
	matmulKC = 128
	matmulJC = 512
)

// matMulRange accumulates rows [lo,hi) of out += a·b with a blocked/tiled
// kernel. b is processed in kc×jc panels so the same panel is reused by
// every row of the range before moving on (the naive ikj order re-streams
// all of b once per row, which thrashes for b larger than L2). Ranges tall
// enough to amortize packing the panel take the register-blocked kernel in
// kernel.go; short ranges stay on the scalar tile kernel below. Both are
// bit-identical, so the split is invisible to callers.
//
// Bit-identity invariant: for every output element out[i][j] the k index
// advances strictly ascending — k panels are visited in order and the inner
// loops never reorder k — so the floating-point accumulation order, and
// therefore the result, is exactly that of the naive ikj kernel. The
// property test in matrix_test.go pins this.
func matMulRange(a, b, out *Matrix, lo, hi int) {
	if hi-lo >= packMinRows {
		matMulRangePacked(a, b, out, lo, hi)
		return
	}
	n, m := a.Cols, b.Cols
	if n <= matmulKC && m <= matmulJC {
		// Single tile: the plain ikj kernel without blocking overhead.
		matMulTile(a, b, out, lo, hi, 0, n, 0, m)
		return
	}
	for k0 := 0; k0 < n; k0 += matmulKC {
		k1 := min(k0+matmulKC, n)
		for j0 := 0; j0 < m; j0 += matmulJC {
			matMulTile(a, b, out, lo, hi, k0, k1, j0, min(j0+matmulJC, m))
		}
	}
}

// matMulTile accumulates out[lo:hi, j0:j1] += a[lo:hi, k0:k1]·b[k0:k1, j0:j1].
// Zero a-elements are skipped (one-hot feature rows are mostly zero); adding
// av*bv == +0 is a no-op on every finite accumulator, and the naive reference
// kernel skips identically, so the skip preserves bit-identity.
func matMulTile(a, b, out *Matrix, lo, hi, k0, k1, j0, j1 int) {
	for i := lo; i < hi; i++ {
		ar := a.Row(i)[k0:k1]
		or := out.Row(i)[j0:j1]
		for kk, av := range ar {
			if av == 0 {
				continue
			}
			br := b.Row(k0 + kk)[j0:j1]
			for j, bv := range br {
				or[j] += av * bv
			}
		}
	}
}

// MatMulATBAdd computes out += aᵀ·b, accumulating straight into a gradient
// buffer. Returns out.
func MatMulATBAdd(out, a, b *Matrix) *Matrix {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulATB shape mismatch %dx%d vs %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	for n := 0; n < a.Rows; n++ {
		ar := a.Row(n)
		br := b.Row(n)
		for i, av := range ar {
			if av == 0 {
				continue
			}
			or := out.Row(i)
			for j, bv := range br {
				or[j] += av * bv
			}
		}
	}
	return out
}

// MatMulABTInto computes out = a·bᵀ into a caller-supplied matrix,
// overwriting every element. Returns out.
func MatMulABTInto(out, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols || out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmulABT shape mismatch %dx%d vs %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		ar := a.Row(i)
		or := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			br := b.Row(j)
			var s float64
			for k, av := range ar {
				s += av * br[k]
			}
			or[j] = s
		}
	}
	return out
}

// XavierInit fills m with Glorot-uniform values using rng.
func (m *Matrix) XavierInit(rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// Dot returns the dot product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes y += alpha*x.
func Axpy(alpha float64, x, y []float64) {
	for i, v := range x {
		y[i] += alpha * v
	}
}
