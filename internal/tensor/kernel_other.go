//go:build !amd64

package tensor

// accPairs16 is the portable accPairs at width 16 on architectures without
// the SSE2 body.
func accPairs16(idx []int32, val, blk []float64, acc *[16]float64) {
	accPairs(idx, val, blk, acc[:])
}
