package tensor

import (
	"runtime"
	"sync"
)

// This file implements the row-parallel matmul used by the batched serving
// path. MatMulInto already fans large products across goroutines, but it
// spawns them per call — fine for training steps, wasteful on a hot serving
// path that must not allocate. MatMulIntoPooled instead hands row ranges to
// a lazily-started persistent worker pool: jobs are plain structs sent over
// a channel and completion is a pooled WaitGroup, so the steady-state call
// allocates nothing.
//
// Bit-identity: workers partition output rows and run the same blocked
// matMulRange kernel as the serial path. Every output element is produced by
// exactly one goroutine with an unchanged accumulation order, so the result
// is bit-identical to one serial matMulRange over all rows for any worker
// count — batching a packed micro-batch through the pooled kernel can never
// change an answer.

// rowJob is one row range of an out += a·b product.
type rowJob struct {
	a, b, out *Matrix
	lo, hi    int
	wg        *sync.WaitGroup
}

var (
	rowPoolOnce sync.Once
	rowWorkers  int
	rowJobs     chan rowJob
	// rowWGPool recycles per-call WaitGroups (their address escapes into the
	// job channel, so a stack local would heap-allocate every call).
	rowWGPool = sync.Pool{New: func() any { return new(sync.WaitGroup) }}
)

// startRowPool launches the persistent workers. They live for the process —
// parked on a channel receive when idle, which costs nothing.
func startRowPool() {
	rowWorkers = runtime.GOMAXPROCS(0)
	rowJobs = make(chan rowJob, 4*rowWorkers)
	for i := 0; i < rowWorkers; i++ {
		go func() {
			for j := range rowJobs {
				matMulRange(j.a, j.b, j.out, j.lo, j.hi)
				j.wg.Done()
			}
		}()
	}
}

// MatMulIntoPooled computes out = a·b, zeroing out first. Small products run
// serially on the calling goroutine; above
// parallelThreshold the rows fan out across the persistent worker pool. Both
// regimes are allocation-free in steady state and bit-identical to each
// other. Returns out.
func MatMulIntoPooled(out, a, b *Matrix) *Matrix {
	checkMatMulInto(out, a, b)
	out.Zero()
	matMulPooled(out, a, b)
	return out
}

// matMulPooled accumulates a·b into out, fanning rows across the persistent
// pool when the product is large enough to amortize the handoff.
func matMulPooled(out, a, b *Matrix) {
	if a.Rows*a.Cols*b.Cols < parallelThreshold || a.Rows < 2 ||
		runtime.GOMAXPROCS(0) <= 1 {
		// Below the fan-out threshold — or on a single-core process, where a
		// worker handoff is pure overhead (the pool worker and the caller
		// would just take turns on the one P): run in place, 0 allocs/op.
		matMulRange(a, b, out, 0, a.Rows)
		return
	}
	rowPoolOnce.Do(startRowPool)
	workers := rowWorkers
	if workers > a.Rows {
		workers = a.Rows
	}
	chunk := (a.Rows + workers - 1) / workers
	// Ranges beyond the first go to the pool; the caller computes the first
	// range itself instead of idling in Wait.
	wg := rowWGPool.Get().(*sync.WaitGroup)
	n := 0
	for lo := chunk; lo < a.Rows; lo += chunk {
		n++
	}
	wg.Add(n)
	for lo := chunk; lo < a.Rows; lo += chunk {
		hi := lo + chunk
		if hi > a.Rows {
			hi = a.Rows
		}
		rowJobs <- rowJob{a: a, b: b, out: out, lo: lo, hi: hi, wg: wg}
	}
	matMulRange(a, b, out, 0, chunk)
	wg.Wait()
	rowWGPool.Put(wg)
}
