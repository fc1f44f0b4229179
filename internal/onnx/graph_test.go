package onnx

import (
	"strings"
	"testing"
)

// smallResidual builds a tiny residual block used across tests:
// input -> conv1 -> relu1 -> conv2 -> add(relu1 shortcut) -> gap -> flatten -> fc
func smallResidual(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder("tiny-res", "Test", Shape{1, 16, 8, 8})
	c1 := b.Conv(b.Input(), 16, 3, 1, 1, 1)
	r1 := b.Relu(c1)
	c2 := b.Conv(r1, 16, 3, 1, 1, 1)
	sum := b.AddTensors(c2, r1)
	g := b.GlobalAveragePool(sum)
	f := b.Flatten(g)
	fc := b.Gemm(f, 10)
	graph, err := b.Finish(fc)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return graph
}

func TestValidateAcceptsWellFormedGraph(t *testing.T) {
	g := smallResidual(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejectsDuplicateNames(t *testing.T) {
	g := smallResidual(t)
	g.Nodes = append(g.Nodes, &Node{Name: g.Nodes[0].Name, Op: OpRelu, Inputs: []string{"input"}})
	g.InvalidateMemo() // mutators must drop the memoized validity
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("want duplicate-name error, got %v", err)
	}
}

func TestValidateRejectsUndefinedInput(t *testing.T) {
	g := smallResidual(t)
	g.Nodes[2].Inputs[0] = "ghost"
	g.InvalidateMemo()
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "undefined") {
		t.Fatalf("want undefined-tensor error, got %v", err)
	}
}

func TestValidateRejectsUnknownOp(t *testing.T) {
	g := smallResidual(t)
	g.Nodes[0].Op = "Teleport"
	g.InvalidateMemo()
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Fatalf("want unknown-op error, got %v", err)
	}
}

func TestValidateRejectsCycle(t *testing.T) {
	g := &Graph{
		Name:   "cycle",
		Inputs: []ValueInfo{{Name: "input", Shape: Shape{1, 3, 4, 4}}},
		Nodes: []*Node{
			{Name: "a", Op: OpRelu, Inputs: []string{"b"}},
			{Name: "b", Op: OpRelu, Inputs: []string{"a"}},
		},
		Outputs: []string{"b"},
	}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("want cycle error, got %v", err)
	}
}

func mustIndex(t testing.TB, g *Graph) *Index {
	t.Helper()
	ix, err := g.Index()
	if err != nil {
		t.Fatalf("Index: %v", err)
	}
	return ix
}

func TestTopoSortOrdersProducersFirst(t *testing.T) {
	g := smallResidual(t)
	ix := mustIndex(t, g)
	pos := make([]int, len(g.Nodes))
	for i, v := range ix.Topo {
		pos[v] = i
	}
	for v := range g.Nodes {
		for _, in := range ix.Inputs(int32(v)) {
			if in >= 0 && pos[in] >= pos[v] {
				t.Errorf("node %s at %d consumes %s at %d", g.Nodes[v].Name, pos[v], g.Nodes[in].Name, pos[in])
			}
		}
	}
}

// TestTopoSortDeterministic: the order is a function of the graph, equal to
// the name-keyed reference on every rebuild and under node permutation.
func TestTopoSortDeterministic(t *testing.T) {
	g := smallResidual(t)
	want, err := RefTopoSort(g)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		g.InvalidateMemo()
		g.Nodes[i%len(g.Nodes)], g.Nodes[0] = g.Nodes[0], g.Nodes[i%len(g.Nodes)]
		ix := mustIndex(t, g)
		for j, v := range ix.Topo {
			if g.Nodes[v] != want[j] {
				t.Fatalf("rebuild %d: order differs at %d: %s vs %s", i, j, g.Nodes[v].Name, want[j].Name)
			}
		}
	}
}

// TestReverseTopoSort: walking Topo backwards, the traversal the graph hash
// needs (Eq. 1), meets every consumer before its producers.
func TestReverseTopoSort(t *testing.T) {
	g := smallResidual(t)
	ix := mustIndex(t, g)
	done := make([]bool, len(g.Nodes))
	for i := len(ix.Topo) - 1; i >= 0; i-- {
		v := ix.Topo[i]
		for _, c := range ix.Consumers(v) {
			if !done[c] {
				t.Fatalf("%s visited before its consumer %s", g.Nodes[v].Name, g.Nodes[c].Name)
			}
		}
		done[v] = true
	}
}

func TestSuccessorsPredecessors(t *testing.T) {
	g := smallResidual(t)
	ix := mustIndex(t, g)
	id := func(name string) int32 {
		for i, n := range g.Nodes {
			if n.Name == name {
				return int32(i)
			}
		}
		t.Fatalf("no node %s", name)
		return -1
	}
	// relu1 feeds conv2 and the Add.
	if got := ix.Consumers(id("Relu_1")); len(got) != 2 {
		t.Fatalf("Relu_1 consumers = %v, want 2 entries", got)
	}
	// Add reads two producer nodes, in declaration order.
	if got := ix.Inputs(id("Add_1")); len(got) != 2 || got[0] != id("Conv_2") || got[1] != id("Relu_1") {
		t.Fatalf("Add_1 inputs = %v, want [Conv_2 Relu_1]", got)
	}
	// conv1 reads only graph input 0.
	if got := ix.Inputs(id("Conv_1")); len(got) != 1 || got[0] != ^int32(0) {
		t.Fatalf("Conv_1 inputs = %v, want [^0]", got)
	}
	if len(ix.Outputs) != 1 || ix.Outputs[0] != id("Gemm_1") {
		t.Fatalf("Outputs = %v, want [Gemm_1]", ix.Outputs)
	}
}

// TestSourceNodes: a repeated edge keeps its multiplicity (Add(x, x) is two
// consumers of x), and the Pre(u)=∅ nodes of Eq. 2 are those with no
// producer among their inputs.
func TestSourceNodes(t *testing.T) {
	b := NewBuilder("twice", "Test", Shape{1, 4, 8, 8})
	l := b.Relu(b.Input())
	r := b.Sigmoid(b.Input())
	g := b.MustFinish(b.AddTensors(l, l), r)
	ix := mustIndex(t, g)
	if got := ix.Consumers(0); len(got) != 2 || got[0] != 2 || got[1] != 2 {
		t.Fatalf("consumers of %s = %v, want Add_1 twice", g.Nodes[0].Name, got)
	}
	var srcs []string
	for v := range g.Nodes {
		src := true
		for _, in := range ix.Inputs(int32(v)) {
			src = src && in < 0
		}
		if src {
			srcs = append(srcs, g.Nodes[v].Name)
		}
	}
	want := RefSourceNodes(g)
	if len(srcs) != 2 || len(want) != 2 || srcs[0] != want[0].Name || srcs[1] != want[1].Name {
		t.Fatalf("source nodes = %v, reference %v", srcs, want)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := smallResidual(t)
	c := g.Clone()
	c.Nodes[0].Attrs["channels"] = IntAttr(999)
	c.Inputs[0].Shape[0] = 42
	if g.Nodes[0].Attrs.Int("channels", 0) == 999 {
		t.Error("clone shares attrs with original")
	}
	if g.Inputs[0].Shape[0] == 42 {
		t.Error("clone shares input shape with original")
	}
}

func TestBatchSize(t *testing.T) {
	g := smallResidual(t)
	if got := g.BatchSize(); got != 1 {
		t.Fatalf("BatchSize = %d, want 1", got)
	}
}

func TestOpCodeCoversAllOps(t *testing.T) {
	seen := make(map[int]OpType)
	for _, op := range AllOpTypes {
		code, ok := OpCode(op)
		if !ok {
			t.Fatalf("OpCode(%s) not found", op)
		}
		if prev, dup := seen[code]; dup {
			t.Fatalf("ops %s and %s share code %d", prev, op, code)
		}
		seen[code] = op
	}
	if _, ok := OpCode("Nonexistent"); ok {
		t.Fatal("OpCode accepted unknown op")
	}
}

func TestBuilderErrorPropagates(t *testing.T) {
	b := NewBuilder("bad", "Test", Shape{1, 3, 8, 8})
	b.Add(OpRelu, nil) // no inputs -> error
	if _, err := b.Finish("x"); err == nil {
		t.Fatal("Finish should surface builder error")
	}
}

func TestShapeHelpers(t *testing.T) {
	s := Shape{2, 3, 4, 5}
	if s.Numel() != 120 {
		t.Fatalf("Numel = %d", s.Numel())
	}
	if !s.Equal(Shape{2, 3, 4, 5}) || s.Equal(Shape{2, 3, 4}) || s.Equal(Shape{2, 3, 4, 6}) {
		t.Fatal("Equal misbehaves")
	}
	if (Shape{}).Numel() != 0 {
		t.Fatal("empty shape Numel should be 0")
	}
	if s.String() != "(2,3,4,5)" {
		t.Fatalf("String = %s", s.String())
	}
}
