package onnx

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// hostileGraph carries every kind of length prefix the binary format has:
// two inputs, attributes of all four kinds, two outputs.
func hostileGraph(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder("hostile", "Test", Shape{1, 4, 8, 8})
	aux := b.AddInput("aux", Shape{1, 4, 8, 8})
	c := b.Conv(b.Input(), 4, 3, 1, 1, 1)
	x := b.Add(OpAdd, Attrs{"note": StringAttr("residual"), "scale": FloatAttr(0.5)}, c, aux)
	g, err := b.Finish(x, c)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestBinaryBoundsEveryLengthPrefix splices a huge uvarint over every byte
// offset of a valid body. Wherever the offset is a length prefix the body now
// promises ~2^34 elements in a few hundred bytes: DecodeBinary must refuse
// with ErrCountExceedsInput before allocating for it, and nowhere may it
// panic or allocate more than a small multiple of the input.
func TestBinaryBoundsEveryLengthPrefix(t *testing.T) {
	data, err := hostileGraph(t).EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0x3f} // uvarint 2^34-1
	kinds := []string{"string bytes", "inputs", "dims", "nodes", "node inputs", "attrs", "ints", "outputs"}
	refused := make(map[string]int)
	for off := len(binaryMagic) + 1; off < len(data); off++ {
		body := append(append(append([]byte{}, data[:off]...), huge...), data[off+1:]...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeBinary(body)
		runtime.ReadMemStats(&after)
		if spent := after.TotalAlloc - before.TotalAlloc; spent > uint64(64*len(body)+1<<16) {
			t.Fatalf("offset %d: decoding %d bytes allocated %d", off, len(body), spent)
		}
		if errors.Is(err, ErrCountExceedsInput) {
			for _, what := range kinds {
				if strings.Contains(err.Error(), fmt.Sprintf(": %d %s with ", 1<<34-1, what)) {
					refused[what]++
				}
			}
		}
	}
	for _, what := range kinds {
		if refused[what] == 0 {
			t.Errorf("no body was refused for its %s count (refusals: %v)", what, refused)
		}
	}
}

// TestBinaryRejectsOverlongVarint: an eleven-byte varint and a tenth byte
// above 1 overflow 64 bits.
func TestBinaryRejectsOverlongVarint(t *testing.T) {
	for _, tail := range [][]byte{
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
	} {
		body := append([]byte(binaryMagic+"\x01"), tail...)
		if _, err := DecodeBinary(body); !errors.Is(err, errVarint) {
			t.Fatalf("% x: err = %v, want varint overflow", tail, err)
		}
	}
}

// TestDecodeBinaryAttachesIndex: a decoded graph validates and is ready to
// hash without another pass, and sees none of the caller's later edits to
// the byte slice it was decoded from.
func TestDecodeBinaryAttachesIndex(t *testing.T) {
	g := hostileGraph(t)
	data, err := g.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.derived.Load() == nil {
		t.Fatal("a valid decoded graph must carry its index")
	}
	for i := range data {
		data[i] = 0
	}
	if !graphsEqual(g, back) {
		t.Fatal("the decoded graph aliases the caller's buffer")
	}
	if avg := testing.AllocsPerRun(20, func() {
		if err := back.Validate(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Validate after decode allocates %.1f objects, want 0", avg)
	}

	// A structurally invalid graph still decodes; Validate says why.
	bad := g.Clone()
	bad.Outputs = []string{"ghost"}
	data, err = bad.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err = DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err == nil || !strings.Contains(err.Error(), "undefined") {
		t.Fatalf("Validate = %v, want undefined-output error", err)
	}
}

// TestDecodedLabelsDoNotPinTheBody: a graph's Name and Family are stored in
// database rows long after the graph is gone. Every other decoded string is a
// substring of one copy of the body; if these two were, each stored row
// would keep a whole body alive.
func TestDecodedLabelsDoNotPinTheBody(t *testing.T) {
	b := NewBuilder("a-graph-name-worth-keeping", "Family", Shape{1, 8, 16, 16})
	x := b.Input()
	for i := 0; i < 100; i++ {
		x = b.ConvBNRelu(x, 8, 3, 1, 1, 1)
	}
	data, err := b.MustFinish(x).EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	const graphs = 2000
	labels := make([]string, 0, 2*graphs)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < graphs; i++ {
		g, err := DecodeBinary(data)
		if err != nil {
			t.Fatal(err)
		}
		labels = append(labels, g.Name, g.Family)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if kept := int64(after.HeapAlloc) - int64(before.HeapAlloc); kept > graphs*int64(len(data))/4 {
		t.Fatalf("%d labels keep %d bytes alive (%d-byte bodies)", len(labels), kept, len(data))
	}
	runtime.KeepAlive(labels)
}
