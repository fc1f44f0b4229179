package onnx

import (
	"strings"
	"testing"
)

func TestBuilderGeneratesUniqueNames(t *testing.T) {
	b := NewBuilder("names", "Test", Shape{1, 8, 8, 8})
	a := b.Conv(b.Input(), 8, 3, 1, 1, 1)
	c := b.Conv(a, 8, 3, 1, 1, 1)
	if a == c {
		t.Fatal("node names must be unique")
	}
	if a != "Conv_1" || c != "Conv_2" {
		t.Fatalf("names = %s, %s", a, c)
	}
}

func TestBuilderHelpersProduceExpectedOps(t *testing.T) {
	b := NewBuilder("helpers", "Test", Shape{1, 16, 16, 16})
	x := b.Input()
	outs := map[string]OpType{
		b.Relu(x):                 OpRelu,
		b.Clip(x, 0, 6):           OpClip,
		b.BatchNorm(x):            OpBatchNorm,
		b.Sigmoid(x):              OpSigmoid,
		b.HardSigmoid(x):          OpHardSigmoid,
		b.MaxPool(x, 2, 2, 0):     OpMaxPool,
		b.AveragePool(x, 2, 2, 0): OpAveragePool,
		b.GlobalAveragePool(x):    OpGlobalAveragePool,
		b.ReduceMean(x):           OpReduceMean,
		b.Flatten(x):              OpFlatten,
		b.LRN(x, 5):               OpLRN,
		b.Dropout(x):              OpDropout,
	}
	for name, wantOp := range outs {
		var found *Node
		for _, n := range b.g.Nodes {
			if n.Name == name {
				found = n
			}
		}
		if found == nil || found.Op != wantOp {
			t.Fatalf("helper for %s produced %v", wantOp, found)
		}
	}
}

func TestBuilderCompositeBlocks(t *testing.T) {
	b := NewBuilder("blocks", "Test", Shape{1, 16, 8, 8})
	x := b.ConvBNRelu(b.Input(), 16, 3, 1, 1, 1)
	x = b.ConvBNClip(x, 16, 3, 1, 1, 1)
	x = b.HardSwish(x)
	x = b.Swish(x)
	x = b.SqueezeExcite(x, 16, 4, true)
	x = b.SqueezeExcite(x, 16, 4, false)
	g, err := b.Finish(x)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[OpType]int{}
	for _, n := range g.Nodes {
		counts[n.Op]++
	}
	if counts[OpConv] < 6 || counts[OpMul] != 4 || counts[OpSigmoid] != 2 || counts[OpHardSigmoid] != 2 {
		t.Fatalf("op counts = %v", counts)
	}
}

func TestSqueezeExciteTinyChannels(t *testing.T) {
	// reduction > channels must clamp the squeeze width to 1, not 0.
	b := NewBuilder("se", "Test", Shape{1, 2, 4, 4})
	x := b.SqueezeExcite(b.Input(), 2, 4, false)
	if _, err := b.Finish(x); err != nil {
		t.Fatalf("tiny SE should be valid: %v", err)
	}
}

func TestMustFinishPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	b := NewBuilder("bad", "Test", Shape{1, 3, 4, 4})
	// Conv kernel larger than input and no padding -> shape error.
	x := b.Conv(b.Input(), 8, 7, 1, 0, 1)
	b.MustFinish(x)
}

func TestBuilderErrShortCircuits(t *testing.T) {
	b := NewBuilder("short", "Test", Shape{1, 3, 4, 4})
	b.Add(OpRelu, nil) // error: no inputs
	if b.err == nil {
		t.Fatal("expected recorded error")
	}
	// Later calls are no-ops returning the placeholder.
	if got := b.Relu(b.Input()); got != "<error>" {
		t.Fatalf("post-error call returned %q", got)
	}
	if _, err := b.Finish("x"); err == nil || !strings.Contains(err.Error(), "no inputs") {
		t.Fatalf("Finish error = %v", err)
	}
}

func TestGraphOutputsMultiple(t *testing.T) {
	b := NewBuilder("multi", "Test", Shape{1, 4, 4, 4})
	a := b.Relu(b.Input())
	c := b.Sigmoid(b.Input())
	g, err := b.Finish(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Outputs) != 2 {
		t.Fatalf("outputs = %d", len(g.Outputs))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}
