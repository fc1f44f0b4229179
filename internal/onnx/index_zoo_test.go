package onnx_test

import (
	"math/rand"
	"sort"
	"testing"

	"nnlqp/internal/models"
	"nnlqp/internal/onnx"
)

// zoo draws per variants from every generator in internal/models.
func zoo(t testing.TB, per int) []*onnx.Graph {
	t.Helper()
	var out []*onnx.Graph
	fams := append(append([]string{}, models.Families...), models.FamilyDetection, models.FamilyOFA)
	for fi, fam := range fams {
		rng := rand.New(rand.NewSource(int64(fi) + 1))
		for i := 0; i < per; i++ {
			g, err := models.Variant(fam, rng, 1)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, g)
		}
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < per; i++ {
		out = append(out, models.RNNVariant(rng, 1))
	}
	return out
}

// TestIndexMatchesNameKeyedTraversals: on every zoo family, built and
// decoded, the index holds exactly what the name-keyed helpers derived —
// the same topological order (feature rows and kernels follow it), the same
// consumer multisets and the same source nodes (the graph hash's operands).
func TestIndexMatchesNameKeyedTraversals(t *testing.T) {
	for _, built := range zoo(t, 12) {
		data, err := built.EncodeBinary()
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := onnx.DecodeBinary(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []*onnx.Graph{built, decoded} {
			ix, err := g.Index()
			if err != nil {
				t.Fatalf("%s: %v", g.Name, err)
			}
			want, err := onnx.RefTopoSort(g)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range ix.Topo {
				if g.Nodes[v].Name != want[i].Name {
					t.Fatalf("%s: topo[%d] = %s, reference %s", g.Name, i, g.Nodes[v].Name, want[i].Name)
				}
			}
			succ, pred := onnx.RefSuccessors(g), onnx.RefPredecessors(g)
			for v, nd := range g.Nodes {
				var got []string
				for _, c := range ix.Consumers(int32(v)) {
					got = append(got, g.Nodes[c].Name)
				}
				sort.Strings(got)
				if !equal(got, succ[nd.Name]) {
					t.Fatalf("%s: consumers of %s = %v, reference %v", g.Name, nd.Name, got, succ[nd.Name])
				}
				got = got[:0]
				for j, in := range ix.Inputs(int32(v)) {
					name := nd.Inputs[j]
					if in >= 0 {
						got = append(got, g.Nodes[in].Name)
						if g.Nodes[in].Name != name {
							t.Fatalf("%s: input %d of %s resolved to %s, want %s", g.Name, j, nd.Name, g.Nodes[in].Name, name)
						}
					} else if g.Inputs[^in].Name != name {
						t.Fatalf("%s: input %d of %s resolved to graph input %s, want %s", g.Name, j, nd.Name, g.Inputs[^in].Name, name)
					}
				}
				sort.Strings(got)
				if !equal(got, pred[nd.Name]) {
					t.Fatalf("%s: producers of %s = %v, reference %v", g.Name, nd.Name, got, pred[nd.Name])
				}
				if code, _ := onnx.OpCode(nd.Op); int(ix.Ops[v]) != code {
					t.Fatalf("%s: op code of %s = %d, want %d", g.Name, nd.Name, ix.Ops[v], code)
				}
				if want := string(nd.Op) + "{" + nd.Attrs.Canonical() + "}"; string(ix.AttrBytes(int32(v))) != want {
					t.Fatalf("%s: attr bytes of %s = %q, want %q", g.Name, nd.Name, ix.AttrBytes(int32(v)), want)
				}
			}
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
