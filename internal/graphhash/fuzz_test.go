package graphhash

import (
	"math/rand"
	"runtime"
	"testing"

	"nnlqp/internal/models"
	"nnlqp/internal/onnx"
)

// maxRefNodes keeps the quadratic reference off graphs only a fuzzer builds.
const maxRefNodes = 4096

// checkAgainstReference holds a valid graph's key to the frozen reference
// and to the key of its own binary round trip.
func checkAgainstReference(t *testing.T, g *onnx.Graph) {
	t.Helper()
	if len(g.Nodes) > maxRefNodes {
		return
	}
	got, err := GraphKey(g)
	if err != nil {
		t.Fatalf("GraphKey failed on a graph Validate accepted: %v", err)
	}
	if want := refKey(t, g); got != want {
		t.Fatalf("key %s, reference %s", got, want)
	}
	enc, err := g.EncodeBinary()
	if err != nil {
		t.Fatalf("a valid graph does not encode: %v", err)
	}
	back, err := onnx.DecodeBinary(enc)
	if err != nil {
		t.Fatalf("a valid graph's encoding does not decode: %v", err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("a valid graph's round trip does not validate: %v", err)
	}
	if again := MustGraphKey(back); again != got {
		t.Fatalf("key %s, after a binary round trip %s", got, again)
	}
}

// FuzzDecodeBinary: whatever the bytes, DecodeBinary neither panics nor
// allocates more than a small multiple of its input; and whenever the result
// validates, the indexed hash equals the reference and survives a round trip.
// The seeds are one wire body per zoo family plus a small body with a huge
// length prefix spliced over every offset, so `go test` runs them all.
func FuzzDecodeBinary(f *testing.F) {
	for _, data := range wireCorpus(f) {
		f.Add(data)
	}
	small, err := branchy("seed").EncodeBinary()
	if err != nil {
		f.Fatal(err)
	}
	for off := 5; off < len(small); off++ {
		f.Add(append(append(append([]byte{}, small[:off]...), 0xff, 0xff, 0xff, 0xff, 0x3f), small[off+1:]...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := onnx.DecodeBinary(data)
		runtime.ReadMemStats(&after)
		if spent := after.TotalAlloc - before.TotalAlloc; spent > uint64(64*len(data)+1<<16) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), spent)
		}
		if err != nil || g.Validate() != nil {
			return
		}
		checkAgainstReference(t, g)
	})
}

// FuzzGraphKeyJSON is the same property for graphs that arrive as JSON and
// get their index lazily.
func FuzzGraphKeyJSON(f *testing.F) {
	for i, fam := range []string{models.FamilyAlexNet, models.FamilySqueezeNet, models.FamilyNasBench201} {
		g, err := models.Variant(fam, rand.New(rand.NewSource(int64(i))), 1)
		if err != nil {
			f.Fatal(err)
		}
		data, err := g.EncodeJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"x","inputs":[{"Name":"input","Shape":[1,3,4,4]}],"nodes":[{"name":"a","op":"Relu","inputs":["input"],"attrs":{"k":{"kind":"float","f":0.1},"s":{"kind":"string","s":"q\"uote"}}},{"name":"b","op":"Add","inputs":["a","a"]}],"outputs":["b"]}`))
	f.Add([]byte(`{"name":"cycle","inputs":[{"Name":"input","Shape":[1]}],"nodes":[{"name":"a","op":"Relu","inputs":["b"]},{"name":"b","op":"Relu","inputs":["a"]}],"outputs":["b"]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := onnx.DecodeJSON(data)
		if err != nil || g.Validate() != nil {
			return
		}
		checkAgainstReference(t, g)
	})
}
