package feats

import (
	"math"
	"testing"

	"nnlqp/internal/models"
	"nnlqp/internal/onnx"
)

func extract(t *testing.T, g *onnx.Graph) *GraphFeatures {
	t.Helper()
	gf, err := Extract(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	return gf
}

func TestExtractShapes(t *testing.T) {
	g := models.BuildResNet(models.BaseResNet(1))
	gf := extract(t, g)
	if gf.NumNodes() != len(g.Nodes) {
		t.Fatalf("nodes = %d, want %d", gf.NumNodes(), len(g.Nodes))
	}
	if gf.X.Rows != gf.NumNodes() || gf.X.Cols != FeatureDim {
		t.Fatalf("X is %dx%d", gf.X.Rows, gf.X.Cols)
	}
	if len(gf.Static) != StaticDim {
		t.Fatalf("static dim = %d", len(gf.Static))
	}
	if len(gf.Adj) != gf.NumNodes() {
		t.Fatalf("adj len = %d", len(gf.Adj))
	}
}

func TestOneHotExactlyOne(t *testing.T) {
	g := models.BuildMobileNetV2(models.BaseMobileNetV2(1))
	gf := extract(t, g)
	for i := 0; i < gf.X.Rows; i++ {
		var ones int
		for _, v := range gf.X.Row(i)[:NumOps] {
			if v == 1 {
				ones++
			} else if v != 0 {
				t.Fatal("one-hot contains non-binary value")
			}
		}
		if ones != 1 {
			t.Fatalf("row %d has %d ones", i, ones)
		}
	}
}

func TestConvFeaturesEncodeAttrs(t *testing.T) {
	b := onnx.NewBuilder("t", "Test", onnx.Shape{2, 3, 32, 32})
	c := b.Conv(b.Input(), 16, 5, 2, 2, 1)
	g := b.MustFinish(c)
	gf := extract(t, g)
	row := gf.X.Row(0)
	num := row[NumOps:]
	if num[0] != 5 || num[1] != 5 {
		t.Fatalf("kernel feature = %v", num[:2])
	}
	if num[2] != 2 || num[3] != 2 {
		t.Fatalf("stride feature = %v", num[2:4])
	}
	if num[4] != 8 { // pads 2+2+2+2
		t.Fatalf("pad feature = %f", num[4])
	}
	// Shape features: output is (2,16,16,16).
	if math.Abs(num[8]-math.Log1p(2)) > 1e-12 {
		t.Fatalf("batch shape feature = %f", num[8])
	}
	if math.Abs(num[9]-math.Log1p(16)) > 1e-12 {
		t.Fatalf("channel shape feature = %f", num[9])
	}
}

func TestAdjacencyIsUndirectedAndMatchesEdges(t *testing.T) {
	b := onnx.NewBuilder("t", "Test", onnx.Shape{1, 8, 8, 8})
	c := b.Conv(b.Input(), 8, 3, 1, 1, 1)
	r := b.Relu(c)
	s := b.Sigmoid(c)
	g := b.MustFinish(b.AddTensors(r, s))
	gf := extract(t, g)
	idx := make(map[string]int)
	for i, n := range gf.NodeNames {
		idx[n] = i
	}
	has := func(a, b int) bool {
		for _, x := range gf.Adj[a] {
			if x == b {
				return true
			}
		}
		return false
	}
	ci, ri, si, ai := idx["Conv_1"], idx["Relu_1"], idx["Sigmoid_1"], idx["Add_1"]
	for _, pair := range [][2]int{{ci, ri}, {ci, si}, {ri, ai}, {si, ai}} {
		if !has(pair[0], pair[1]) || !has(pair[1], pair[0]) {
			t.Fatalf("edge %v not undirected in adjacency", pair)
		}
	}
	if has(ci, ai) {
		t.Fatal("phantom edge conv-add")
	}
}

func TestStaticFeaturesMatchCost(t *testing.T) {
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	gf := extract(t, g)
	cost, _ := g.Cost(4)
	if gf.Static[0] != 1 {
		t.Fatalf("batch static = %f", gf.Static[0])
	}
	if math.Abs(gf.Static[1]-math.Log1p(float64(cost.FLOPs))) > 1e-9 {
		t.Fatal("FLOPs static mismatch")
	}
	if math.Abs(gf.Static[3]-math.Log1p(float64(cost.MAC))) > 1e-9 {
		t.Fatal("MAC static mismatch")
	}
}

func TestNormalizerStandardizes(t *testing.T) {
	var gfs []*GraphFeatures
	for _, build := range []func() *onnx.Graph{
		func() *onnx.Graph { return models.BuildResNet(models.BaseResNet(1)) },
		func() *onnx.Graph { return models.BuildSqueezeNet(models.BaseSqueezeNet(1)) },
		func() *onnx.Graph { return models.BuildMobileNetV2(models.BaseMobileNetV2(1)) },
	} {
		gfs = append(gfs, extract(t, build()))
	}
	nz := FitNormalizer(gfs)
	// Normalize copies and verify the pooled numeric columns have ~zero
	// mean and ~unit variance.
	var rows float64
	sums := make([]float64, FeatureDim-NumOps)
	sqs := make([]float64, FeatureDim-NumOps)
	for _, gf := range gfs {
		c := gf.Clone()
		nz.Apply(c)
		for i := 0; i < c.X.Rows; i++ {
			for j, v := range c.X.Row(i)[NumOps:] {
				sums[j] += v
				sqs[j] += v * v
			}
			rows++
		}
		// One-hot part untouched.
		for i := 0; i < c.X.Rows; i++ {
			for j, v := range c.X.Row(i)[:NumOps] {
				if v != gf.X.Row(i)[j] {
					t.Fatal("normalizer touched one-hot columns")
				}
			}
		}
	}
	for j := range sums {
		mean := sums[j] / rows
		variance := sqs[j]/rows - mean*mean
		if math.Abs(mean) > 1e-6 {
			t.Fatalf("column %d mean %f after normalization", j, mean)
		}
		if variance > 1e-6 && math.Abs(variance-1) > 1e-3 {
			t.Fatalf("column %d variance %f after normalization", j, variance)
		}
	}
}

func TestNormalizerConstantColumnSafe(t *testing.T) {
	gfs := []*GraphFeatures{extract(t, models.BuildVGG(models.BaseVGG(1)))}
	nz := FitNormalizer(gfs)
	for _, s := range nz.Std {
		if s <= 0 {
			t.Fatal("std must be positive")
		}
	}
	for _, s := range nz.StaticStd {
		if s <= 0 {
			t.Fatal("static std must be positive")
		}
	}
	// Single graph: static features are constant, std falls back to 1 and
	// Apply maps them to 0.
	c := gfs[0].Clone()
	nz.Apply(c)
	for _, v := range c.Static {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("constant static should normalize to 0, got %f", v)
		}
	}
}

func TestFitNormalizerEmpty(t *testing.T) {
	nz := FitNormalizer(nil)
	for _, s := range nz.Std {
		if s != 1 {
			t.Fatal("empty fit should default std to 1")
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	gf := extract(t, models.BuildSqueezeNet(models.BaseSqueezeNet(1)))
	c := gf.Clone()
	c.X.Set(0, 0, 99)
	c.Static[0] = 99
	c.Adj[0] = append(c.Adj[0], 0)
	if gf.X.At(0, 0) == 99 || gf.Static[0] == 99 {
		t.Fatal("clone shares storage")
	}
}

// TestAdjacencyOrderFollowsIndex pins the neighbour order the GNN's mean
// aggregation sums in: rows follow the index's topological order, and for
// each row in turn, each producing input in declaration order lists the two
// rows under each other — repeated edges twice, graph inputs never.
func TestAdjacencyOrderFollowsIndex(t *testing.T) {
	b := onnx.NewBuilder("t", "Test", onnx.Shape{1, 8, 8, 8})
	c := b.Conv(b.Input(), 8, 3, 1, 1, 1)
	twice := b.AddTensors(c, c)
	small := b.MustFinish(b.MulTensors(b.Sigmoid(twice), c))
	for _, g := range []*onnx.Graph{small, models.BuildGoogleNet(models.BaseGoogleNet(1)), models.BuildUnrolledRNN(models.BaseRNN(2))} {
		gf := extract(t, g)
		ix, err := g.Index()
		if err != nil {
			t.Fatal(err)
		}
		row := make(map[string]int)
		for i, v := range ix.Topo {
			if gf.NodeNames[i] != g.Nodes[v].Name {
				t.Fatalf("%s: row %d is %s, index order says %s", g.Name, i, gf.NodeNames[i], g.Nodes[v].Name)
			}
			row[gf.NodeNames[i]] = i
		}
		want := make([][]int, len(g.Nodes))
		for i, v := range ix.Topo {
			for _, in := range g.Nodes[v].Inputs {
				if j, ok := row[in]; ok {
					want[i] = append(want[i], j)
					want[j] = append(want[j], i)
				}
			}
		}
		for i := range want {
			if len(want[i]) != len(gf.Adj[i]) {
				t.Fatalf("%s: row %d has neighbours %v, want %v", g.Name, i, gf.Adj[i], want[i])
			}
			for k := range want[i] {
				if want[i][k] != gf.Adj[i][k] {
					t.Fatalf("%s: row %d has neighbours %v, want %v", g.Name, i, gf.Adj[i], want[i])
				}
			}
		}
	}
}
