package onnx

import "fmt"

// Builder incrementally constructs a Graph with automatic node naming.
// Model-family constructors in internal/models are written against it.
type Builder struct {
	g       *Graph
	counter map[string]int
	err     error
}

// NewBuilder starts a graph with one NCHW input named "input".
func NewBuilder(name, family string, inputShape Shape) *Builder {
	return &Builder{
		g: &Graph{
			Name:   name,
			Family: family,
			Inputs: []ValueInfo{{Name: "input", Shape: inputShape.Clone()}},
		},
		counter: make(map[string]int),
	}
}

// Input returns the name of the graph input tensor.
func (b *Builder) Input() string { return b.g.Inputs[0].Name }

// AddInput declares an additional graph input (e.g. per-timestep tensors of
// an unrolled RNN) and returns its name.
func (b *Builder) AddInput(name string, shape Shape) string {
	if b.err != nil {
		return "<error>"
	}
	b.g.Inputs = append(b.g.Inputs, ValueInfo{Name: name, Shape: shape.Clone()})
	return name
}

// fail records the first error and keeps the builder usable (later calls
// become no-ops returning a placeholder), so model constructors can chain
// freely and check the error once at Finish.
func (b *Builder) fail(format string, args ...any) string {
	if b.err == nil {
		b.err = fmt.Errorf("onnx builder %q: "+format, append([]any{b.g.Name}, args...)...)
	}
	return "<error>"
}

// Add appends a node with a generated unique name and returns the name of
// its output tensor.
func (b *Builder) Add(op OpType, attrs Attrs, inputs ...string) string {
	if b.err != nil {
		return "<error>"
	}
	if len(inputs) == 0 {
		return b.fail("op %s with no inputs", op)
	}
	b.counter[string(op)]++
	name := fmt.Sprintf("%s_%d", op, b.counter[string(op)])
	b.g.Nodes = append(b.g.Nodes, &Node{Name: name, Op: op, Inputs: inputs, Attrs: attrs})
	return name
}

// Conv appends a 2-D convolution. pad is symmetric (same value on all
// sides); use ConvAsym for asymmetric padding.
func (b *Builder) Conv(in string, outCh, kernel, stride, pad, group int) string {
	return b.Add(OpConv, Attrs{
		"channels":     IntAttr(int64(outCh)),
		"kernel_shape": IntsAttr(int64(kernel), int64(kernel)),
		"strides":      IntsAttr(int64(stride), int64(stride)),
		"pads":         IntsAttr(int64(pad), int64(pad), int64(pad), int64(pad)),
		"group":        IntAttr(int64(group)),
	}, in)
}

// Relu appends a ReLU.
func (b *Builder) Relu(in string) string { return b.Add(OpRelu, nil, in) }

// Clip appends a Clip (ReLU6 when min=0,max=6).
func (b *Builder) Clip(in string, min, max float64) string {
	return b.Add(OpClip, Attrs{"min": FloatAttr(min), "max": FloatAttr(max)}, in)
}

// BatchNorm appends a batch normalization.
func (b *Builder) BatchNorm(in string) string { return b.Add(OpBatchNorm, nil, in) }

// AddTensors appends an elementwise Add of two tensors.
func (b *Builder) AddTensors(x, y string) string { return b.Add(OpAdd, nil, x, y) }

// MulTensors appends an elementwise Mul of two tensors.
func (b *Builder) MulTensors(x, y string) string { return b.Add(OpMul, nil, x, y) }

// Sigmoid appends a Sigmoid.
func (b *Builder) Sigmoid(in string) string { return b.Add(OpSigmoid, nil, in) }

// HardSigmoid appends a HardSigmoid.
func (b *Builder) HardSigmoid(in string) string { return b.Add(OpHardSigmoid, nil, in) }

// MaxPool appends a max pooling node.
func (b *Builder) MaxPool(in string, kernel, stride, pad int) string {
	return b.Add(OpMaxPool, poolAttrs(kernel, stride, pad), in)
}

// AveragePool appends an average pooling node.
func (b *Builder) AveragePool(in string, kernel, stride, pad int) string {
	return b.Add(OpAveragePool, poolAttrs(kernel, stride, pad), in)
}

func poolAttrs(kernel, stride, pad int) Attrs {
	return Attrs{
		"kernel_shape": IntsAttr(int64(kernel), int64(kernel)),
		"strides":      IntsAttr(int64(stride), int64(stride)),
		"pads":         IntsAttr(int64(pad), int64(pad), int64(pad), int64(pad)),
	}
}

// GlobalAveragePool appends a global average pooling node.
func (b *Builder) GlobalAveragePool(in string) string {
	return b.Add(OpGlobalAveragePool, nil, in)
}

// ReduceMean appends a spatial mean over H,W keeping dims.
func (b *Builder) ReduceMean(in string) string {
	return b.Add(OpReduceMean, Attrs{"axes": IntsAttr(2, 3), "keepdims": IntAttr(1)}, in)
}

// Gemm appends a fully connected layer.
func (b *Builder) Gemm(in string, outFeatures int) string {
	return b.Add(OpGemm, Attrs{"out_features": IntAttr(int64(outFeatures))}, in)
}

// Flatten appends a Flatten.
func (b *Builder) Flatten(in string) string { return b.Add(OpFlatten, nil, in) }

// Concat appends a channel concatenation.
func (b *Builder) Concat(ins ...string) string {
	return b.Add(OpConcat, Attrs{"axis": IntAttr(1)}, ins...)
}

// LRN appends local response normalization (AlexNet).
func (b *Builder) LRN(in string, size int) string {
	return b.Add(OpLRN, Attrs{"size": IntAttr(int64(size))}, in)
}

// Dropout appends a Dropout marker node.
func (b *Builder) Dropout(in string) string { return b.Add(OpDropout, nil, in) }

// ConvBNRelu is the ubiquitous Conv→BatchNorm→ReLU block.
func (b *Builder) ConvBNRelu(in string, outCh, kernel, stride, pad, group int) string {
	return b.Relu(b.BatchNorm(b.Conv(in, outCh, kernel, stride, pad, group)))
}

// ConvBNClip is Conv→BatchNorm→ReLU6 (MobileNet-style).
func (b *Builder) ConvBNClip(in string, outCh, kernel, stride, pad, group int) string {
	return b.Clip(b.BatchNorm(b.Conv(in, outCh, kernel, stride, pad, group)), 0, 6)
}

// HardSwish is x * HardSigmoid(x), the MobileNetV3 activation expressed in
// primitive ops.
func (b *Builder) HardSwish(in string) string {
	return b.MulTensors(in, b.HardSigmoid(in))
}

// Swish is x * Sigmoid(x) (EfficientNet).
func (b *Builder) Swish(in string) string {
	return b.MulTensors(in, b.Sigmoid(in))
}

// SqueezeExcite appends a squeeze-and-excitation gate with the given
// reduction, returning the gated tensor.
func (b *Builder) SqueezeExcite(in string, channels, reduction int, hard bool) string {
	mid := channels / reduction
	if mid < 1 {
		mid = 1
	}
	s := b.ReduceMean(in)
	s = b.Relu(b.Conv(s, mid, 1, 1, 0, 1))
	s = b.Conv(s, channels, 1, 1, 0, 1)
	if hard {
		s = b.HardSigmoid(s)
	} else {
		s = b.Sigmoid(s)
	}
	return b.MulTensors(in, s)
}

// Finish declares outputs, validates, and returns the graph.
func (b *Builder) Finish(outputs ...string) (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	b.g.Outputs = outputs
	if err := b.g.Validate(); err != nil {
		return nil, err
	}
	if _, err := b.g.InferShapes(); err != nil {
		return nil, err
	}
	// Callers routinely edit attributes of a finished graph before first
	// use; hand it over without derived state so those edits are seen.
	b.g.InvalidateMemo()
	return b.g, nil
}

// MustFinish is Finish for programmatically-constructed models whose
// validity is a code invariant; it panics on error.
func (b *Builder) MustFinish(outputs ...string) *Graph {
	g, err := b.Finish(outputs...)
	if err != nil {
		panic(err)
	}
	return g
}
