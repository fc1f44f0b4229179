package graphhash

import (
	"math/rand"
	"testing"

	"nnlqp/internal/onnx"
)

func chain(name string, channels ...int) *onnx.Graph {
	b := onnx.NewBuilder(name, "Test", onnx.Shape{1, 3, 16, 16})
	x := b.Input()
	for _, c := range channels {
		x = b.ConvBNRelu(x, c, 3, 1, 1, 1)
	}
	return b.MustFinish(x)
}

func branchy(name string) *onnx.Graph {
	b := onnx.NewBuilder(name, "Test", onnx.Shape{1, 8, 16, 16})
	l := b.Conv(b.Input(), 8, 1, 1, 0, 1)
	r := b.Conv(b.Input(), 8, 3, 1, 1, 1)
	cat := b.Concat(l, r)
	return b.MustFinish(b.Relu(cat))
}

func TestIdenticalStructureSameKey(t *testing.T) {
	a := chain("a", 16, 32)
	b := chain("completely-different-name", 16, 32)
	ka, kb := MustGraphKey(a), MustGraphKey(b)
	if ka != kb {
		t.Fatalf("identical structure hashed differently: %s vs %s", ka, kb)
	}
}

func TestAttributeChangeChangesKey(t *testing.T) {
	a := chain("a", 16, 32)
	b := chain("b", 16, 32)
	b.Nodes[0].Attrs["kernel_shape"] = onnx.IntsAttr(5, 5)
	b.Nodes[0].Attrs["pads"] = onnx.IntsAttr(2, 2, 2, 2)
	if MustGraphKey(a) == MustGraphKey(b) {
		t.Fatal("kernel size change did not change key")
	}
}

func TestChannelChangeChangesKey(t *testing.T) {
	if MustGraphKey(chain("a", 16, 32)) == MustGraphKey(chain("b", 16, 48)) {
		t.Fatal("channel change did not change key")
	}
}

func TestTopologyChangeChangesKey(t *testing.T) {
	if MustGraphKey(chain("a", 16, 32)) == MustGraphKey(chain("b", 32, 16)) {
		t.Fatal("layer-order change did not change key")
	}
	if MustGraphKey(chain("a", 16)) == MustGraphKey(chain("b", 16, 16)) {
		t.Fatal("depth change did not change key")
	}
}

func TestInputShapeChangesKey(t *testing.T) {
	a := chain("a", 16)
	b := onnx.NewBuilder("b", "Test", onnx.Shape{1, 3, 32, 32})
	x := b.ConvBNRelu(b.Input(), 16, 3, 1, 1, 1)
	g := b.MustFinish(x)
	if MustGraphKey(a) == MustGraphKey(g) {
		t.Fatal("input resolution change did not change key")
	}
}

func TestNodeOrderIrrelevant(t *testing.T) {
	g := branchy("g")
	perm := g.Clone()
	// Reverse the node slice: hash must not depend on storage order.
	for i, j := 0, len(perm.Nodes)-1; i < j; i, j = i+1, j-1 {
		perm.Nodes[i], perm.Nodes[j] = perm.Nodes[j], perm.Nodes[i]
	}
	if MustGraphKey(g) != MustGraphKey(perm) {
		t.Fatal("node storage order affected the key")
	}
}

func TestBranchSwapWithDifferentOpsChangesKey(t *testing.T) {
	// left 1x1 / right 3x3 vs left 3x3 / right 1x1: the concat argument
	// order is part of the topology (concat output differs), but with
	// sorted successor hashing the structure {1x1,3x3} feeding a concat is
	// symmetric. Both graphs therefore hash equal — this documents the
	// deliberate commutativity of f_sort.
	a := branchy("a")
	b := onnx.NewBuilder("b", "Test", onnx.Shape{1, 8, 16, 16})
	r := b.Conv(b.Input(), 8, 3, 1, 1, 1)
	l := b.Conv(b.Input(), 8, 1, 1, 0, 1)
	cat := b.Concat(r, l)
	g := b.MustFinish(b.Relu(cat))
	if MustGraphKey(a) != MustGraphKey(g) {
		t.Fatal("symmetric branch permutation should not change key")
	}
}

func TestNodeHashesSharedSubgraph(t *testing.T) {
	// Same suffix structure ⇒ same node hash for the suffix head, even in
	// different graphs ("the same node hash encoding means that the
	// sub-graphs composed of its successor nodes are the same").
	a := chain("a", 16, 32)
	b := chain("b", 8, 16, 32) // extra leading layer, same tail
	_, ha, err := Hash(a)
	if err != nil {
		t.Fatal(err)
	}
	_, hb, err := Hash(b)
	if err != nil {
		t.Fatal(err)
	}
	// Tail = final Relu node of each chain.
	if ha["Relu_2"] != hb["Relu_3"] {
		t.Fatal("identical successor subgraphs should share node hashes")
	}
	// But the heads differ.
	if ha["Conv_1"] == hb["Conv_1"] {
		t.Fatal("different subtrees should not share node hashes")
	}
}

func TestHashDeterministicAcrossRuns(t *testing.T) {
	g := branchy("g")
	k := MustGraphKey(g)
	for i := 0; i < 20; i++ {
		if MustGraphKey(g) != k {
			t.Fatal("hash not deterministic")
		}
	}
}

func TestKeyString(t *testing.T) {
	k := Key(0x0123456789abcdef)
	if k.String() != "0123456789abcdef" {
		t.Fatalf("String = %s", k.String())
	}
}

func TestHashRejectsCyclicGraph(t *testing.T) {
	g := &onnx.Graph{
		Name:   "cycle",
		Inputs: []onnx.ValueInfo{{Name: "input", Shape: onnx.Shape{1, 3, 4, 4}}},
		Nodes: []*onnx.Node{
			{Name: "a", Op: onnx.OpRelu, Inputs: []string{"b"}},
			{Name: "b", Op: onnx.OpRelu, Inputs: []string{"a"}},
		},
		Outputs: []string{"b"},
	}
	if _, _, err := Hash(g); err == nil {
		t.Fatal("want error on cyclic graph")
	}
}

// TestCollisionResistanceSmoke generates many random variant chains and
// checks for key collisions; with 64-bit keys any collision among a few
// thousand graphs indicates a structural bug, not birthday chance.
func TestCollisionResistanceSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seen := make(map[Key]string)
	for i := 0; i < 3000; i++ {
		depth := 1 + rng.Intn(6)
		chs := make([]int, depth)
		for d := range chs {
			chs[d] = 8 * (1 + rng.Intn(64))
		}
		g := chain("g", chs...)
		// Randomly perturb a kernel size too.
		if rng.Intn(2) == 0 {
			k := int64(1 + 2*rng.Intn(3))
			g.Nodes[0].Attrs["kernel_shape"] = onnx.IntsAttr(k, k)
			g.Nodes[0].Attrs["pads"] = onnx.IntsAttr(k/2, k/2, k/2, k/2)
		}
		key := MustGraphKey(g)
		sig := g.Nodes[0].Attrs.Canonical()
		for _, n := range g.Nodes {
			sig += "|" + string(n.Op) + n.Attrs.Canonical()
		}
		if prev, ok := seen[key]; ok && prev != sig {
			t.Fatalf("collision between distinct structures at iteration %d", i)
		}
		seen[key] = sig
	}
}
