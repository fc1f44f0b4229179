package tensor

import "sync"

// This file holds the packed pair kernel behind matMulRange. The scalar tile
// kernel in matrix.go computes one output row at a time with a re-sliced b
// row per k step; this kernel instead
//
//  1. packs the current kc×jc tile of b once per range into blockJ-column
//     blocks, k-major within a block (blk[blockJ*k+c] = b[k0+k][j0+c0+c]),
//     plus one narrower block for the jw%blockJ remainder, so one k step
//     reads one contiguous run of the block;
//  2. compacts each a row's panel slice into its nonzero (k, a) pairs once
//     per tile, so zero a-elements cost nothing in any block; and
//  3. runs every block of the row through accPairs16 (accPairs for the
//     remainder): blockJ output columns accumulated at once, one broadcast a
//     value per pair.
//
// Bit-identity invariant (the same one matrix.go documents): for every
// output element out[i][j] the a[i,k]*b[k,j] terms are accumulated in
// strictly ascending k, each accumulator starts from the current output value
// (so a tile's partial sum continues the previous tile's, never re-associates
// it), and the pair list keeps exactly the terms the scalar kernel keeps:
// av != 0, so NaN stays and ±0 is dropped. Every lane computes acc + av*b
// with two roundings, as the scalar MULSD/ADDSD pair does, and lanes never
// sum across columns, so the block width cannot change any element's
// floating-point sequence. Go does not fuse acc += av*b into an FMA on amd64
// (at any GOAMD64 level); on arm64 it emits FMADDD, so there the portable
// accPairs matches that architecture's other Go kernels and cross-
// architecture bit equality is not claimed. kernel_test.go pins all of this
// against the naive reference.
//
// Packing costs one pass over the tile, amortized across the rows of the
// range; below packMinRows the scalar tile kernel is cheaper and runs
// instead (both kernels are bit-identical, so the threshold is purely a
// performance knob).

const (
	// packMinRows is the minimum row count for which packing the b tile
	// pays for itself. 1-row head matmuls and tiny fan-out chunks take the
	// scalar tile kernel.
	packMinRows = 4
	// blockJ is the column width of one packed block: the 16 accumulators
	// accPairs16 holds in eight SSE2 registers.
	blockJ = 16
)

// panelBuf is one goroutine's packing scratch: the blocked b tile and one a
// row's nonzero pairs. Pooled so concurrent row-range workers never share
// (or allocate) one.
type panelBuf struct {
	panel []float64 // the kc×jc tile of b in blockJ-column blocks
	idx   []int32   // k offsets of one row's nonzero a-elements, ascending
	val   []float64 // the a-elements at idx
}

var panelPool = sync.Pool{New: func() any { return new(panelBuf) }}

// matMulRangePacked accumulates rows [lo,hi) of out += a·b through the
// packed pair kernel. Tile visit order matches matMulRange's scalar path
// exactly (k panels ascending, j panels ascending within each).
func matMulRangePacked(a, b, out *Matrix, lo, hi int) {
	n, m := a.Cols, b.Cols
	pb := panelPool.Get().(*panelBuf)
	for k0 := 0; k0 < n; k0 += matmulKC {
		k1 := min(k0+matmulKC, n)
		for j0 := 0; j0 < m; j0 += matmulJC {
			matMulTilePacked(a, b, out, lo, hi, k0, k1, j0, min(j0+matmulJC, m), pb)
		}
	}
	panelPool.Put(pb)
}

// matMulTilePacked accumulates out[lo:hi, j0:j1] += a[lo:hi, k0:k1]·b[k0:k1, j0:j1]:
// it packs the b tile, then runs each row's nonzero pairs through every block.
func matMulTilePacked(a, b, out *Matrix, lo, hi, k0, k1, j0, j1 int, pb *panelBuf) {
	kw, jw := k1-k0, j1-j0
	if kw <= 0 || jw <= 0 {
		return
	}
	if cap(pb.panel) < kw*jw {
		pb.panel = make([]float64, kw*jw)
	}
	if cap(pb.idx) < kw {
		pb.idx, pb.val = make([]int32, kw), make([]float64, kw)
	}
	panel, idx, val := pb.panel[:kw*jw], pb.idx[:kw], pb.val[:kw]
	// Block c0 (width w) starts at panel[c0*kw]: the blocks before it hold
	// c0 columns of kw rows each.
	for k := 0; k < kw; k++ {
		br := b.Row(k0 + k)[j0:j1]
		for c0 := 0; c0 < jw; c0 += blockJ {
			w := min(blockJ, jw-c0)
			copy(panel[c0*kw+w*k:c0*kw+w*k+w], br[c0:c0+w])
		}
	}
	full := jw - jw%blockJ
	for i := lo; i < hi; i++ {
		n := 0
		for k, av := range a.Row(i)[k0:k1] {
			if av != 0 {
				idx[n], val[n] = int32(k), av
				n++
			}
		}
		if n == 0 {
			continue
		}
		or := out.Row(i)[j0:j1]
		for c0 := 0; c0 < full; c0 += blockJ {
			accPairs16(idx[:n], val[:n], panel[c0*kw:(c0+blockJ)*kw], (*[blockJ]float64)(or[c0:c0+blockJ]))
		}
		if full < jw {
			accPairs(idx[:n], val[:n], panel[full*kw:], or[full:])
		}
	}
}

// accPairs accumulates acc[c] += val[p]*blk[len(acc)*idx[p]+c] over the
// pairs in order: the portable body of accPairs16 at any block width, and
// the remainder block on every architecture. Columns go four at a time in
// register accumulators, then one at a time; a read-modify-write of acc per
// pair instead measured half the speed at width 8 and a quarter at width 1.
func accPairs(idx []int32, val, blk, acc []float64) {
	w := len(acc)
	val = val[:len(idx)]
	c := 0
	for ; c+4 <= w; c += 4 {
		a0, a1, a2, a3 := acc[c], acc[c+1], acc[c+2], acc[c+3]
		for p, k := range idx {
			b := blk[int(k)*w+c:][:4]
			a0 += val[p] * b[0]
			a1 += val[p] * b[1]
			a2 += val[p] * b[2]
			a3 += val[p] * b[3]
		}
		acc[c], acc[c+1], acc[c+2], acc[c+3] = a0, a1, a2, a3
	}
	for ; c < w; c++ {
		a := acc[c]
		for p, k := range idx {
			a += val[p] * blk[int(k)*w+c]
		}
		acc[c] = a
	}
}
