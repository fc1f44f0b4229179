package tensor

// accPairs16 is accPairs at width 16 in SSE2 (kernel_amd64.s): the 16
// accumulators live in X0–X7 for the whole pair loop, and each pair's a value
// is broadcast once and multiplied into eight 2-lane column loads. blk holds
// 16 columns per k (blk[16*k+c]); every idx must be below len(blk)/16.
//
//go:noescape
func accPairs16(idx []int32, val, blk []float64, acc *[16]float64)
