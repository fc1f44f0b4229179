package onnx

import "testing"

func memoTestGraph() *Graph {
	b := NewBuilder("memo", "Test", Shape{1, 3, 8, 8})
	return b.MustFinish(b.Relu(b.Conv(b.Input(), 8, 3, 1, 1, 1)))
}

// TestGraphMemoLifecycle: the graph has one derived-state slot, the Index,
// and what other packages memoize hangs off it.
func TestGraphMemoLifecycle(t *testing.T) {
	g := memoTestGraph()
	ix, err := g.Index()
	if err != nil {
		t.Fatal(err)
	}
	if ix.HashMemo() != 0 || ix.FeatMemo() != nil {
		t.Fatal("a fresh index must carry no memo")
	}
	ix.SetHashMemo(0xabcd)
	ix.SetFeatMemo("payload")
	if again, _ := g.Index(); again != ix {
		t.Fatal("Index must return the cached instance")
	}
	if ix.HashMemo() != 0xabcd || ix.FeatMemo() != "payload" {
		t.Fatalf("memo = (%x, %v)", ix.HashMemo(), ix.FeatMemo())
	}

	// Clone never inherits derived state: clones exist to be mutated.
	if c := g.Clone(); c.derived.Load() != nil {
		t.Fatal("clone inherited the derived slot")
	}

	g.InvalidateMemo()
	fresh, err := g.Index()
	if err != nil {
		t.Fatal(err)
	}
	if fresh == ix || fresh.HashMemo() != 0 || fresh.FeatMemo() != nil {
		t.Fatal("InvalidateMemo left derived state behind")
	}
}

// TestValidateMemoized pins the validation fast path: a successful Validate
// is remembered on the instance, and InvalidateMemo forces the structural
// walk to run again (so post-mutation corruption is caught).
func TestValidateMemoized(t *testing.T) {
	g := memoTestGraph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the graph. The memoized fast path deliberately skips the walk…
	saved := g.Outputs
	g.Outputs = nil
	if err := g.Validate(); err != nil {
		t.Fatalf("memoized Validate must not re-walk: %v", err)
	}
	// …until the mutator invalidates, as every mutating site must.
	g.InvalidateMemo()
	if err := g.Validate(); err == nil {
		t.Fatal("post-invalidation Validate must see the corruption")
	}
	g.Outputs = saved
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	// A failed Validate must not set the memo.
	bad := memoTestGraph()
	bad.Outputs = nil
	bad.InvalidateMemo() // Finish already validated (and memoized) the graph
	if err := bad.Validate(); err == nil {
		t.Fatal("want validation failure")
	}
	bad.Outputs = []string{"missing"}
	if err := bad.Validate(); err == nil {
		t.Fatal("failure must not have memoized validity")
	}
}

func TestValidateMemoAllocFree(t *testing.T) {
	g := memoTestGraph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("memoized Validate allocates %.1f objects/op, want 0", avg)
	}
}
