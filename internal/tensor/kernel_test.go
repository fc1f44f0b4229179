package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestPackedKernelBitIdentical drives matMulRangePacked directly (bypassing
// the packMinRows dispatch, so short ranges are covered too) across shapes on
// both sides of the tile boundaries, with block-remainder column counts,
// partial row ranges, and sparse inputs, requiring exact bitwise equality
// with the naive ascending-k reference.
func TestPackedKernelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cases := []struct {
		rows, inner, cols int
		sparsity          float64
	}{
		{1, 1, 1, 0},
		{2, 9, 3, 0},          // cols < 16: remainder block only
		{4, 33, 6, 0.4},       // remainder block only, sparse
		{3, 16, 4, 0},         // remainder block only, dense
		{7, 128, 512, 0},      // exactly one tile
		{5, 129, 513, 0.3},    // straddles both tile boundaries
		{6, 300, 600, 0.5},    // multiple tiles in both k and j
		{16, 257, 1030, 0.95}, // one-hot-ish rows
		{12, 40, 23, 0.9},     // ragged GNN-layer shape: one 16-wide block, remainder 7
	}
	for _, c := range cases {
		a := randMatrix(rng, c.rows, c.inner, c.sparsity)
		b := randMatrix(rng, c.inner, c.cols, 0)
		want := naiveMatMulRef(a, b)

		got := NewMatrix(c.rows, c.cols)
		matMulRangePacked(a, b, got, 0, c.rows)
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("shape (%d,%d,%d) sparsity %.2f: packed[%d] = %v, naive = %v (must be bit-identical)",
					c.rows, c.inner, c.cols, c.sparsity, i, got.Data[i], want.Data[i])
			}
		}

		// A partial row range must only touch its rows, identically.
		if c.rows >= 3 {
			part := NewMatrix(c.rows, c.cols)
			matMulRangePacked(a, b, part, 1, c.rows-1)
			for i := 0; i < c.rows; i++ {
				for j, v := range part.Row(i) {
					if i == 0 || i == c.rows-1 {
						if v != 0 {
							t.Fatalf("shape (%d,%d,%d): packed range wrote outside [1,%d) at row %d",
								c.rows, c.inner, c.cols, c.rows-1, i)
						}
					} else if v != want.Row(i)[j] {
						t.Fatalf("shape (%d,%d,%d): packed partial range diverges at (%d,%d)",
							c.rows, c.inner, c.cols, i, j)
					}
				}
			}
		}
	}
}

// TestPackedKernelDegenerateShapes pins the zero-dimension cases: no rows,
// no columns, and an empty inner dimension must all be no-ops.
func TestPackedKernelDegenerateShapes(t *testing.T) {
	for _, c := range [][3]int{{0, 5, 7}, {5, 0, 7}, {5, 7, 0}} {
		a := NewMatrix(c[0], c[1])
		b := NewMatrix(c[1], c[2])
		out := NewMatrix(c[0], c[2])
		matMulRangePacked(a, b, out, 0, c[0]) // must not panic
		for _, v := range out.Data {
			if v != 0 {
				t.Fatalf("degenerate shape %v produced nonzero output", c)
			}
		}
	}
}

// TestPackedKernelSpecialValues pins NaN/Inf handling: each row's nonzero
// (k, a) pair compaction keeps NaN a-values (NaN != 0, same branch the
// scalar kernel takes), so poison propagates bit-identically to the reference.
func TestPackedKernelSpecialValues(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randMatrix(rng, 6, 20, 0.3)
	b := randMatrix(rng, 20, 11, 0)
	a.Set(1, 3, math.NaN())
	a.Set(2, 0, math.Inf(1))
	b.Set(7, 2, math.NaN())
	b.Set(4, 9, math.Inf(-1))

	want := naiveMatMulRef(a, b)
	got := NewMatrix(6, 11)
	matMulRangePacked(a, b, got, 0, 6)
	for i := range got.Data {
		w, g := want.Data[i], got.Data[i]
		if g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("special values: packed[%d] = %v, naive = %v", i, g, w)
		}
	}
}

// TestPackedKernelAccumulates pins that the packed kernel continues an
// existing partial sum (accumulators seeded from the output) rather than
// overwriting — the invariant that makes multi-tile k panels bit-identical.
func TestPackedKernelAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randMatrix(rng, 8, 150, 0.4)
	b := randMatrix(rng, 150, 37, 0)
	base := randMatrix(rng, 8, 37, 0)

	want := base.Clone()
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := want.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}

	got := base.Clone()
	matMulRangePacked(a, b, got, 0, a.Rows)
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("packed accumulate[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestMatMulSingleCoreAllocs is the satellite guard for the GOMAXPROCS=1
// regression: with one effective worker, both the per-call fan-out entry
// point (MatMulInto) and the pooled one (MatMulIntoPooled) must dispatch
// straight to the in-place kernel with zero goroutine fan-out and 0
// allocs/op, even above parallelThreshold.
func TestMatMulSingleCoreAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts differ under -race")
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	rng := rand.New(rand.NewSource(3))
	x := randMatrix(rng, 64, 256, 0.3) // 64*256*256 » parallelThreshold
	w := randMatrix(rng, 256, 256, 0)
	out := NewMatrix(64, 256)

	if n := testing.AllocsPerRun(10, func() { MatMulInto(out, x, w) }); n != 0 {
		t.Fatalf("MatMulInto at GOMAXPROCS=1: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { MatMulIntoPooled(out, x, w) }); n != 0 {
		t.Fatalf("MatMulIntoPooled at GOMAXPROCS=1: %v allocs/op, want 0", n)
	}
}

// BenchmarkMatmulPooled is the pooled entry point on the same multiply as
// BenchmarkMatmulBlocked/Parallel — the bench guard for the single-core
// dispatch fix (at GOMAXPROCS=1 all three must now be within noise of each
// other and 0 allocs/op).
func BenchmarkMatmulPooled(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randMatrix(rng, 64, 256, 0.3)
	w := randMatrix(rng, 256, 256, 0)
	out := NewMatrix(64, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulIntoPooled(out, x, w)
	}
}

// sameBits is bitwise float equality, except that any NaN equals any NaN: the
// kernels pin where poison lands, not which NaN payload survives.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// naiveMatMulAddRef is naiveMatMulRef accumulated onto a copy of base, term
// by term in ascending k with the scalar kernel's av == 0 skip.
func naiveMatMulAddRef(base, a, b *Matrix) *Matrix {
	out := base.Clone()
	for i := 0; i < a.Rows; i++ {
		orow := out.Row(i)
		for k, av := range a.Row(i) {
			if av == 0 {
				continue
			}
			for j, bv := range b.Row(k) {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// checkPackedKernels runs out = base + a·b through matMulRangePacked, the
// matMulRange dispatch and the scalar matMulTile path over rows [lo,hi), and
// fails unless each matches the naive reference bit for bit inside the range
// and leaves base untouched outside it.
func checkPackedKernels(t *testing.T, name string, base, a, b *Matrix, lo, hi int) {
	t.Helper()
	want := naiveMatMulAddRef(base, a, b)
	for _, k := range []struct {
		kernel string
		run    func(out *Matrix)
	}{
		{"matMulRangePacked", func(out *Matrix) { matMulRangePacked(a, b, out, lo, hi) }},
		{"matMulRange", func(out *Matrix) { matMulRange(a, b, out, lo, hi) }},
		{"matMulTile", func(out *Matrix) { matMulTile(a, b, out, lo, hi, 0, a.Cols, 0, b.Cols) }},
	} {
		got := base.Clone()
		k.run(got)
		for i := 0; i < got.Rows; i++ {
			ref := want.Row(i)
			if i < lo || i >= hi {
				ref = base.Row(i)
			}
			for j, g := range got.Row(i) {
				if !sameBits(g, ref[j]) {
					t.Fatalf("%s: %s[%d][%d] = %v (%#x), want %v (%#x)", name, k.kernel, i, j,
						g, math.Float64bits(g), ref[j], math.Float64bits(ref[j]))
				}
			}
		}
	}
}

// TestAccPairsBitIdentical drives the SIMD pair kernel and its portable body
// directly: from seeded accumulators, for every pair list shape (empty, one
// pair, gaps, the last k of the block), both must equal the scalar
// acc += av*b sequence bit for bit, and accPairs must do so at every width.
func TestAccPairsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, kw := range []int{1, 2, 7, 128, 300} {
		for _, density := range []float64{0, 0.1, 0.5, 1} {
			var idx []int32
			var val []float64
			for k := 0; k < kw; k++ {
				if rng.Float64() < density || (density > 0 && k == kw-1) {
					idx, val = append(idx, int32(k)), append(val, rng.NormFloat64())
				}
			}
			for _, w := range []int{1, 3, 8, 15, blockJ} {
				blk := make([]float64, w*kw)
				for i := range blk {
					blk[i] = rng.NormFloat64()
				}
				seed := make([]float64, w)
				for c := range seed {
					seed[c] = rng.NormFloat64()
				}
				want := append([]float64(nil), seed...)
				for p, k := range idx {
					for c := range want {
						want[c] += val[p] * blk[int(k)*w+c]
					}
				}
				got := append([]float64(nil), seed...)
				accPairs(idx, val, blk, got)
				if w == blockJ {
					var acc [blockJ]float64
					copy(acc[:], seed)
					accPairs16(idx, val, blk, &acc)
					for c := range acc {
						if !sameBits(acc[c], want[c]) {
							t.Fatalf("accPairs16 kw=%d pairs=%d: acc[%d] = %v, want %v", kw, len(idx), c, acc[c], want[c])
						}
					}
				}
				for c := range got {
					if !sameBits(got[c], want[c]) {
						t.Fatalf("accPairs w=%d kw=%d pairs=%d: acc[%d] = %v, want %v", w, kw, len(idx), c, got[c], want[c])
					}
				}
			}
		}
	}
}

// TestPackedKernelBlockEdges sweeps the output width across the 16-column
// block edges (every jw in 1–40, and 47–49) against inner sizes that cross
// matmulKC, with row counts below, at and above packMinRows, and seeded
// accumulators, so every full-block/remainder split and every k-tile
// continuation is checked bit for bit.
func TestPackedKernelBlockEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	widths := []int{47, 48, 49}
	for jw := 1; jw <= 40; jw++ {
		widths = append(widths, jw)
	}
	for _, kw := range []int{127, matmulKC, 129, 300} {
		for _, jw := range widths {
			for _, rows := range []int{1, packMinRows - 1, packMinRows, packMinRows + 1} {
				a := randMatrix(rng, rows, kw, 0.3)
				b := randMatrix(rng, kw, jw, 0)
				base := randMatrix(rng, rows, jw, 0)
				checkPackedKernels(t, fmt.Sprintf("rows=%d kw=%d jw=%d", rows, kw, jw), base, a, b, 0, rows)
			}
		}
	}
}

// TestPackedKernelSkipsExactlyTheScalarTerms pins the pair compaction's term
// set: all-zero rows contribute nothing, -0 in a is skipped like +0, NaN in a
// is kept, and ±Inf/NaN in b under a zero (or -0) a never reach the output,
// which stays finite exactly where the scalar kernel's does.
func TestPackedKernelSkipsExactlyTheScalarTerms(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const rows, kw, jw = 7, 150, 37
	a := randMatrix(rng, rows, kw, 0.4)
	b := randMatrix(rng, kw, jw, 0)
	for k := 0; k < kw; k++ {
		a.Set(2, k, 0) // an all-zero row
	}
	a.Set(3, 5, math.Copysign(0, -1))
	a.Set(4, 9, math.NaN())
	// Column 11 of a is ±0 in every row, so b's row 11 is never read.
	for i := 0; i < rows; i++ {
		a.Set(i, 11, math.Copysign(0, float64(i%2*2-1)))
	}
	for j := 0; j < jw; j++ {
		b.Set(11, j, []float64{math.Inf(1), math.Inf(-1), math.NaN()}[j%3])
	}
	base := randMatrix(rng, rows, jw, 0)
	base.Set(0, 0, math.Copysign(0, -1))
	checkPackedKernels(t, "special values", base, a, b, 0, rows)
	checkPackedKernels(t, "special values, partial range", base, a, b, 1, rows-1)

	got := base.Clone()
	matMulRangePacked(a, b, got, 0, rows)
	for i := 0; i < rows; i++ {
		for j, v := range got.Row(i) {
			if finite := !math.IsNaN(v) && !math.IsInf(v, 0); finite != (i != 4) {
				t.Fatalf("out[%d][%d] = %v: only row 4 (NaN in a) may be non-finite", i, j, v)
			}
		}
	}
	for j, v := range got.Row(2) {
		if math.Float64bits(v) != math.Float64bits(base.At(2, j)) {
			t.Fatalf("all-zero row changed out[2][%d]: %v -> %v", j, base.At(2, j), v)
		}
	}
}

// FuzzPackedKernel derives shape, sparsity and special values from the fuzz
// input and checks the packed, dispatched and scalar kernels against the
// naive reference bit for bit. special's bits place -0 and NaN in a, ±Inf in
// a, ±Inf/NaN in b under an all-zero a column, and seed the accumulators.
func FuzzPackedKernel(f *testing.F) {
	f.Add(int64(1), uint8(5), uint16(96), uint8(48), uint8(0), uint8(0))
	f.Add(int64(2), uint8(9), uint16(129), uint8(49), uint8(128), uint8(31))
	f.Add(int64(3), uint8(4), uint16(300), uint8(17), uint8(250), uint8(16))
	f.Add(int64(4), uint8(3), uint16(1), uint8(1), uint8(255), uint8(15))
	f.Fuzz(func(t *testing.T, seed int64, rows uint8, kw uint16, jw, zeros, special uint8) {
		r, n, m := int(rows%12), int(kw%400), int(jw%70)
		rng := rand.New(rand.NewSource(seed))
		a := randMatrix(rng, r, n, float64(zeros)/255)
		b := randMatrix(rng, n, m, 0)
		base := NewMatrix(r, m)
		if special&16 != 0 {
			base = randMatrix(rng, r, m, 0.2)
		}
		if r > 0 && n > 0 {
			if special&1 != 0 {
				a.Set(rng.Intn(r), rng.Intn(n), math.Copysign(0, -1))
			}
			if special&2 != 0 {
				a.Set(rng.Intn(r), rng.Intn(n), math.NaN())
			}
			if special&4 != 0 {
				a.Set(rng.Intn(r), rng.Intn(n), math.Inf(1-2*rng.Intn(2)))
			}
			if special&8 != 0 && m > 0 {
				k := rng.Intn(n)
				for i := 0; i < r; i++ {
					a.Set(i, k, 0)
				}
				for j := 0; j < m; j++ {
					b.Set(k, j, []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)])
				}
			}
		}
		checkPackedKernels(t, fmt.Sprintf("seed=%d shape=(%d,%d,%d)", seed, r, n, m), base, a, b, 0, r)
	})
}

// BenchmarkMatmulSAGELayer is the fused SAGE layer-2/3 product of the
// default predictor (hidden 48): a dense 129×96 [x|mx] block times the
// stacked 96×48 [W1;W2] weight, every row through three 16-column blocks.
func BenchmarkMatmulSAGELayer(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randMatrix(rng, 129, 96, 0)
	w := randMatrix(rng, 96, 48, 0)
	out := NewMatrix(129, 48)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulIntoSerial(out, x, w)
	}
}
