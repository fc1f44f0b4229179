package graphhash

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"nnlqp/internal/models"
	"nnlqp/internal/onnx"
)

// refKey is the frozen implementation's whole-graph key.
func refKey(t testing.TB, g *onnx.Graph) Key {
	t.Helper()
	k, _, err := Hash(g)
	if err != nil {
		t.Fatalf("reference hash of %s: %v", g.Name, err)
	}
	return k
}

// viaWire is what the server sees: the graph encoded and decoded again.
func viaWire(t testing.TB, g *onnx.Graph) *onnx.Graph {
	t.Helper()
	data, err := g.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := onnx.DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func setBatch(g *onnx.Graph, batch int) {
	for i := range g.Inputs {
		g.Inputs[i].Shape[0] = batch
	}
}

// goldenFamilies is the family list testdata/golden_keys.txt was drawn over.
func goldenFamilies() []string {
	return append(append([]string{}, models.Families...), models.FamilyDetection, models.FamilyOFA)
}

// TestGoldenKeys holds GraphKey to keys written by the last commit that had
// the map-based hash: a database persisted then must keep answering.
func TestGoldenKeys(t *testing.T) {
	f, err := os.Open("testdata/golden_keys.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		want[line[:cut]] = line[cut+1:]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for fi, fam := range goldenFamilies() {
		seed := int64(1000 + fi)
		rng := rand.New(rand.NewSource(seed))
		for v := 0; v < 24; v++ {
			g, err := models.Variant(fam, rng, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range []int{0, 8} {
				id := fmt.Sprintf("%s %d %d %d", fam, seed, v, batch)
				gold, ok := want[id]
				if !ok {
					t.Fatalf("no golden line for %q", id)
				}
				// The builder-made graph, and the server's route: decode,
				// rewrite the batch dimension in place, hash.
				built, wire := g.Clone(), viaWire(t, g)
				if batch > 0 {
					setBatch(built, batch)
					setBatch(wire, batch)
				}
				if got := MustGraphKey(built).String(); got != gold {
					t.Errorf("%s (built): key %s, golden %s", id, got, gold)
				}
				if got := MustGraphKey(wire).String(); got != gold {
					t.Errorf("%s (decoded): key %s, golden %s", id, got, gold)
				}
				checked++
			}
		}
	}
	if checked != len(want) {
		t.Fatalf("checked %d golden lines of %d", checked, len(want))
	}
}

// TestGraphKeyMatchesReferenceOnZoo: old vs new over every variant generator,
// builder-made and decoded-from-wire, 200 draws each.
func TestGraphKeyMatchesReferenceOnZoo(t *testing.T) {
	gens := make(map[string]func(*rand.Rand) *onnx.Graph)
	for _, fam := range goldenFamilies() {
		fam := fam
		gens[fam] = func(rng *rand.Rand) *onnx.Graph {
			g, err := models.Variant(fam, rng, 1+rng.Intn(4))
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
	}
	gens["RNN"] = func(rng *rand.Rand) *onnx.Graph { return models.RNNVariant(rng, 1+rng.Intn(4)) }
	graphs := 0
	for fam, gen := range gens {
		rng := rand.New(rand.NewSource(int64(len(fam)) * 7919))
		for i := 0; i < 200; i++ {
			g := gen(rng)
			want := refKey(t, g)
			if got := MustGraphKey(g); got != want {
				t.Fatalf("%s #%d (built): key %s, reference %s", fam, i, got, want)
			}
			if got := MustGraphKey(viaWire(t, g)); got != want {
				t.Fatalf("%s #%d (decoded): key %s, reference %s", fam, i, got, want)
			}
			graphs += 2
		}
	}
	if graphs < 2000 {
		t.Fatalf("only %d graphs compared", graphs)
	}
}

// TestGraphKeyMatchesReferenceTargeted covers the shapes of graph the zoo
// does not draw.
func TestGraphKeyMatchesReferenceTargeted(t *testing.T) {
	in := onnx.Shape{2, 4, 8, 8}
	cases := map[string]func() *onnx.Graph{
		"repeated edge": func() *onnx.Graph {
			b := onnx.NewBuilder("g", "T", in)
			x := b.Relu(b.Input())
			return b.MustFinish(b.AddTensors(x, x))
		},
		"multi source, multi output": func() *onnx.Graph {
			b := onnx.NewBuilder("g", "T", in)
			aux := b.AddInput("aux", in)
			l := b.Conv(b.Input(), 8, 3, 1, 1, 1)
			r := b.Sigmoid(aux)
			m := b.MulTensors(b.Conv(r, 8, 1, 1, 0, 1), l)
			return b.MustFinish(m, r, b.Relu(l))
		},
		"graph input is an output": func() *onnx.Graph {
			b := onnx.NewBuilder("g", "T", in)
			return b.MustFinish(b.Relu(b.Input()), b.Input())
		},
		"all four attribute kinds": func() *onnx.Graph {
			b := onnx.NewBuilder("g", "T", in)
			x := b.Add(onnx.OpRelu, onnx.Attrs{
				"i":    onnx.IntAttr(math.MinInt64),
				"is":   onnx.IntsAttr(-1, 0, math.MaxInt64),
				"none": onnx.IntsAttr(),
				"f1":   onnx.FloatAttr(1e21),
				"f2":   onnx.FloatAttr(0.1),
				"f3":   onnx.FloatAttr(-2.5e-7),
				"f4":   onnx.FloatAttr(6),
				"f5":   onnx.FloatAttr(math.Inf(-1)),
				"f6":   onnx.FloatAttr(math.NaN()),
				"s":    onnx.StringAttr("quote\" back\\ tab\t nul\x00 é \xff"),
				"":     onnx.StringAttr(""),
				"bad":  {Kind: 9},
			}, b.Input())
			return b.MustFinish(x)
		},
		"wide fan-out": func() *onnx.Graph {
			b := onnx.NewBuilder("g", "T", in)
			x := b.Relu(b.Input())
			var outs []string
			for i := 0; i < 40; i++ {
				outs = append(outs, b.Clip(x, 0, float64(i%7)))
			}
			return b.MustFinish(b.Concat(outs...))
		},
	}
	for name, build := range cases {
		g := build()
		want := refKey(t, g)
		if got := MustGraphKey(g); got != want {
			t.Errorf("%s: key %s, reference %s", name, got, want)
		}
		// Node order is storage, not structure.
		perm := g.Clone()
		for i, j := 0, len(perm.Nodes)-1; i < j; i, j = i+1, j-1 {
			perm.Nodes[i], perm.Nodes[j] = perm.Nodes[j], perm.Nodes[i]
		}
		if got := MustGraphKey(perm); got != want {
			t.Errorf("%s (permuted): key %s, reference %s", name, got, want)
		}
	}
}

// TestGraphKeyReadsInputShapesLive: the two call sites that rewrite the
// batch dimension of a graph that already has its index and then hash it
// without InvalidateMemo — the server after DecodeBinary, the benchmark's
// pool after EncodeBinary — must see the new shape, before and after a first
// key was taken.
func TestGraphKeyReadsInputShapesLive(t *testing.T) {
	base := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	at8 := base.Clone()
	setBatch(at8, 8)
	want1, want8 := refKey(t, base), refKey(t, at8)
	if want1 == want8 {
		t.Fatal("the batch dimension must be part of the key")
	}

	decoded := viaWire(t, base)
	setBatch(decoded, 8)
	if err := decoded.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := MustGraphKey(decoded); got != want8 {
		t.Fatalf("rewritten after DecodeBinary: key %s, want %s", got, want8)
	}

	encoded := base.Clone()
	if err := encoded.Validate(); err != nil { // the index exists before the rewrite
		t.Fatal(err)
	}
	if _, err := encoded.EncodeBinary(); err != nil {
		t.Fatal(err)
	}
	setBatch(encoded, 8)
	if got := MustGraphKey(encoded); got != want8 {
		t.Fatalf("rewritten after EncodeBinary: key %s, want %s", got, want8)
	}

	setBatch(encoded, 1)
	if got := MustGraphKey(encoded); got != want1 {
		t.Fatalf("rewritten back after a key was taken: key %s, want %s", got, want1)
	}
}

// TestGraphKeyAfterMutateAndInvalidate: topology and attribute edits are
// seen once InvalidateMemo drops the index.
func TestGraphKeyAfterMutateAndInvalidate(t *testing.T) {
	g := viaWire(t, chain("m", 16, 32))
	before := MustGraphKey(g)
	g.Nodes[0].Attrs["channels"] = onnx.IntAttr(24)
	g.Nodes = append(g.Nodes, &onnx.Node{Name: "tail", Op: onnx.OpSigmoid, Inputs: []string{g.Outputs[0]}})
	g.Outputs = []string{"tail"}
	g.InvalidateMemo()
	after := MustGraphKey(g)
	if after == before {
		t.Fatal("the edit did not change the key")
	}
	if want := refKey(t, g); after != want {
		t.Fatalf("after edit: key %s, reference %s", after, want)
	}
}

// wireCorpus is one encoded variant of each zoo family.
func wireCorpus(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for i, fam := range models.Families {
		g, err := models.Variant(fam, rand.New(rand.NewSource(int64(i))), 1)
		if err != nil {
			t.Fatal(err)
		}
		data, err := g.EncodeBinary()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// TestHitPathAllocs pins what a database hit pays between the body and the
// key. Before the indexed form the corpus mean was 1,808 allocations to
// decode, 395 to validate and 2,144 to hash.
func TestHitPathAllocs(t *testing.T) {
	corpus := wireCorpus(t)
	var decode, validate, key float64
	for _, data := range corpus {
		decode += testing.AllocsPerRun(20, func() {
			if _, err := onnx.DecodeBinary(data); err != nil {
				t.Fatal(err)
			}
		})
		graphs := make([]*onnx.Graph, 21) // AllocsPerRun runs once to warm up
		for i := range graphs {
			graphs[i], _ = onnx.DecodeBinary(data)
		}
		next := 0
		key += testing.AllocsPerRun(20, func() {
			g := graphs[next]
			next++
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			if _, err := GraphKey(g); err != nil {
				t.Fatal(err)
			}
		})
		validate += testing.AllocsPerRun(20, func() {
			if err := graphs[0].Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
	n := float64(len(corpus))
	t.Logf("corpus mean allocs: decode %.0f, validate+key on a fresh decode %.1f, validate %.1f", decode/n, key/n, validate/n)
	if decode/n > 0.6*1808 {
		t.Errorf("DecodeBinary allocates %.0f objects on the corpus mean, want <= %.0f", decode/n, 0.6*1808)
	}
	if key/n > 4 {
		t.Errorf("Validate+GraphKey on a freshly decoded graph allocates %.1f objects, want <= 4", key/n)
	}
	if validate > 0 {
		t.Errorf("Validate after decode allocates %.1f objects, want 0", validate/n)
	}
}
