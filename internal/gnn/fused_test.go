package gnn

import (
	"math/rand"
	"testing"

	"nnlqp/internal/tensor"
)

// TestCSRAppendGraph pins the flattened adjacency against the [][]int
// source, including block-diagonal offsetting and reuse after Reset.
func TestCSRAppendGraph(t *testing.T) {
	adj1 := [][]int{{1, 2}, {}, {0, 1}}
	adj2 := [][]int{{1}, {0}}

	var c CSR
	c.Reset()
	c.AppendGraph(adj1, 0)
	c.AppendGraph(adj2, 3)
	if n := len(c.Off) - 1; n != 5 {
		t.Fatalf("nodes = %d, want 5", n)
	}
	want := [][]int32{{1, 2}, {}, {0, 1}, {4}, {3}}
	for i, w := range want {
		nb := c.Neighbors(i)
		if len(nb) != len(w) {
			t.Fatalf("node %d: %v, want %v", i, nb, w)
		}
		for k := range w {
			if nb[k] != w[k] {
				t.Fatalf("node %d: %v, want %v", i, nb, w)
			}
		}
	}

	// Reset must fully empty it while keeping it usable.
	c.Reset()
	c.AppendGraph(adj2, 0)
	if len(c.Off)-1 != 2 || c.Neighbors(0)[0] != 1 {
		t.Fatalf("after Reset: nodes=%d neighbors(0)=%v", len(c.Off)-1, c.Neighbors(0))
	}
}

// TestFusedForwardBitIdentical pins the fused single-matmul forward against
// the training-path two-pass forward, bitwise, across normalization modes,
// isolated nodes, and with the stacked weights both cached and scratch-built.
// This is the fusion half of the kernel bit-identity story: [x|mx]·[W1;W2]
// accumulates all W1 terms then all W2 terms per element, exactly like
// x·W1 += mx·W2.
func TestFusedForwardBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const nodes, in, out = 11, 9, 14
	for _, noNorm := range []bool{false, true} {
		l := NewSAGEConv("fused", in, out, rng)
		l.NoNorm = noNorm

		x := tensor.NewMatrix(nodes, in)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		x.Set(3, 2, 0) // exercise the zero-skip on both paths
		// Node 5 is isolated, node 6 has a single neighbour, others chain.
		adj := [][]int{{1}, {0, 2}, {1, 3}, {2, 4}, {3}, {}, {7}, {6, 8}, {7, 9}, {8, 10}, {9}}

		want, _ := l.ForwardScratch(x, adj, nil)

		var csr CSR
		csr.Reset()
		csr.AppendGraph(adj, 0)

		stacked := l.StackedWeights(nil)
		sc := tensor.NewScratch()
		got := l.ForwardInferCSR(x, &csr, stacked, sc)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("noNorm=%v: fused(cached)[%d] = %v, training = %v", noNorm, i, got.Data[i], want.Data[i])
			}
		}

		sc.Reset()
		got2 := l.ForwardInferCSR(x, &csr, nil, sc) // stack into scratch per call
		for i := range want.Data {
			if got2.Data[i] != want.Data[i] {
				t.Fatalf("noNorm=%v: fused(scratch)[%d] = %v, training = %v", noNorm, i, got2.Data[i], want.Data[i])
			}
		}
	}
}

// TestStackedWeightsLayout pins the [W1;W2] stacking and the dst-reuse
// contract (mis-shaped dst is replaced, right-shaped dst is refilled).
func TestStackedWeightsLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewSAGEConv("s", 4, 3, rng)
	s := l.StackedWeights(nil)
	if s.Rows != 8 || s.Cols != 3 {
		t.Fatalf("stacked shape %dx%d, want 8x3", s.Rows, s.Cols)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			if s.At(i, j) != l.W1.Value.At(i, j) || s.At(i+4, j) != l.W2.Value.At(i, j) {
				t.Fatalf("stacked layout broken at (%d,%d)", i, j)
			}
		}
	}
	// After a weight update, restacking into the same dst must refresh it.
	l.W1.Value.Set(0, 0, 42)
	s2 := l.StackedWeights(s)
	if s2 != s || s.At(0, 0) != 42 {
		t.Fatalf("restack into same dst: got %p vs %p, s[0,0]=%v", s2, s, s.At(0, 0))
	}
}

// TestEncoderFusedStackedCache pins that the encoder-level fused forward
// with a cached StackedWeightsAll snapshot matches the wrapper (and thus the
// training path) bitwise.
func TestEncoderFusedStackedCache(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const in, hidden = 6, 10
	enc := NewEncoderNoFinalNorm(in, hidden, 3, rng)
	x, adj := randGraph(rng, 8, in)

	want, _ := enc.ForwardScratch(x, adj, nil)

	var csr CSR
	csr.Reset()
	csr.AppendGraph(adj, 0)
	stacked := enc.StackedWeightsAll()
	sc := tensor.NewScratch()
	got := enc.ForwardInferCSR(x, &csr, stacked, sc)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("encoder fused[%d] = %v, training = %v", i, got.Data[i], want.Data[i])
		}
	}
}
