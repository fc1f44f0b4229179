package tensor

import (
	"math/rand"
	"sync"
	"testing"
)

// TestMatMulPooledBitIdenticalToSerial pins the pooled kernel's core
// contract: for products small and large (both sides of parallelThreshold),
// any worker partitioning must reproduce the serial blocked kernel bit for
// bit.
func TestMatMulPooledBitIdenticalToSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cases := [][2]int{{3, 8}, {64, 48}, {500, 48}, {2048, 24}}
	for _, c := range cases {
		rows, cols := c[0], c[1]
		a := randomMatrix(rng, rows, 38)
		b := randomMatrix(rng, 38, cols)
		want := MatMulIntoSerial(NewMatrix(rows, cols), a, b)
		got := MatMulIntoPooled(NewMatrix(rows, cols), a, b)
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				t.Fatalf("%dx%d: pooled[%d] = %v, serial %v (must be bit-identical)", rows, cols, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestMatMulPooledConcurrentCallers drives the worker pool from many
// goroutines at once (the serving pattern: concurrent batched requests), for
// the race detector and to check results stay independent.
func TestMatMulPooledConcurrentCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randomMatrix(rng, 700, 38)
	b := randomMatrix(rng, 38, 48)
	want := MatMulIntoSerial(NewMatrix(700, 48), a, b)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := NewMatrix(700, 48)
			for it := 0; it < 5; it++ {
				MatMulIntoPooled(out, a, b)
				for i := range want.Data {
					if out.Data[i] != want.Data[i] {
						t.Errorf("concurrent pooled result diverged at %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestMatMulPooledSteadyStateAllocs pins the allocation-free handoff: jobs
// are struct sends and the WaitGroup is pooled, so a warm large product must
// not allocate.
func TestMatMulPooledSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool intentionally bypasses its cache under -race, so alloc counts are meaningless")
	}
	rng := rand.New(rand.NewSource(11))
	a := randomMatrix(rng, 1024, 38)
	b := randomMatrix(rng, 38, 48)
	out := NewMatrix(1024, 48)
	for i := 0; i < 3; i++ {
		MatMulIntoPooled(out, a, b)
	}
	avg := testing.AllocsPerRun(50, func() {
		MatMulIntoPooled(out, a, b)
	})
	if avg > 0 {
		t.Fatalf("pooled matmul allocates %.1f objects/op in steady state, want 0", avg)
	}
}
