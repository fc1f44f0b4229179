package tensor

import "fmt"

// The bit-identity references for the blocked kernel: an allocating matmul
// and the serial in-place kernel over all rows, which the parallel and pooled
// entry points are checked against.

// MatMul computes out = a·b, allocating out. Panics on shape mismatch.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	return matMulAdd(NewMatrix(a.Rows, b.Cols), a, b)
}

// MatMulIntoSerial is MatMulInto pinned to the calling goroutine: the
// blocked kernel runs in place over all rows with no fan-out. Every parallel
// and pooled entry point must reproduce it bit for bit.
func MatMulIntoSerial(out, a, b *Matrix) *Matrix {
	checkMatMulInto(out, a, b)
	out.Zero()
	matMulRange(a, b, out, 0, a.Rows)
	return out
}

// MatMulAddIntoSerial is MatMulAddInto pinned to the calling goroutine (see
// MatMulIntoSerial).
func MatMulAddIntoSerial(out, a, b *Matrix) *Matrix {
	checkMatMulInto(out, a, b)
	matMulRange(a, b, out, 0, a.Rows)
	return out
}
