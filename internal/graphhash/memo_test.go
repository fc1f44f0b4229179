package graphhash

import (
	"testing"

	"nnlqp/internal/onnx"
)

func hashMemo(t *testing.T, g *onnx.Graph) uint64 {
	t.Helper()
	ix, err := g.Index()
	if err != nil {
		t.Fatal(err)
	}
	return ix.HashMemo()
}

// TestGraphKeyMemoized pins the memo contract: the first GraphKey call
// stores the topology hash state on the graph's index, later calls serve it
// without another walk, and InvalidateMemo forces a recompute that observes
// mutations.
func TestGraphKeyMemoized(t *testing.T) {
	g := chain("memo", 16, 32)
	if hashMemo(t, g) != 0 {
		t.Fatal("fresh graph must not carry a hash memo")
	}
	k1 := MustGraphKey(g)
	m1 := hashMemo(t, g)
	if m1 == 0 {
		t.Fatal("GraphKey left no memo on the index")
	}
	if k2 := MustGraphKey(g); k2 != k1 {
		t.Fatalf("memoized key %s != first key %s", k2, k1)
	}

	// A mutation without InvalidateMemo keeps serving the stale key — that is
	// the documented contract, and why every mutating site must invalidate.
	g.Nodes[0].Attrs["kernel_shape"] = onnx.IntsAttr(5, 5)
	g.Nodes[0].Attrs["pads"] = onnx.IntsAttr(2, 2, 2, 2)
	if k := MustGraphKey(g); k != k1 {
		t.Fatalf("stale memo not served: %s != %s", k, k1)
	}
	g.InvalidateMemo()
	k3 := MustGraphKey(g)
	if k3 == k1 {
		t.Fatal("post-invalidation key must reflect the mutation")
	}
	// And the recomputed state is memoized again.
	if m3 := hashMemo(t, g); m3 == 0 || m3 == m1 {
		t.Fatalf("memo after recompute = %x, was %x", m3, m1)
	}
}

// TestGraphKeyMemoDroppedByClone ensures clones recompute rather than
// inheriting the parent's memo (a clone is usually cloned to be mutated).
func TestGraphKeyMemoDroppedByClone(t *testing.T) {
	g := chain("parent", 16)
	k := MustGraphKey(g)
	c := g.Clone()
	if hashMemo(t, c) != 0 {
		t.Fatal("clone must not inherit the hash memo")
	}
	if ck := MustGraphKey(c); ck != k {
		t.Fatalf("structurally identical clone hashed differently: %s vs %s", ck, k)
	}
}

func BenchmarkGraphKeyMemoized(b *testing.B) {
	g := chain("bench", 16, 32, 64)
	MustGraphKey(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MustGraphKey(g)
	}
}
