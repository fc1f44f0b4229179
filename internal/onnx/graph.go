package onnx

import (
	"fmt"
	"sync/atomic"
)

// OpType identifies an operator. The vocabulary below covers every operator
// emitted by the model builders in internal/models, which together span the
// ten model families of the NNLQP evaluation.
type OpType string

// Supported operator types.
const (
	OpConv              OpType = "Conv"
	OpRelu              OpType = "Relu"
	OpClip              OpType = "Clip" // ReLU6 and friends
	OpAdd               OpType = "Add"
	OpMul               OpType = "Mul"
	OpSigmoid           OpType = "Sigmoid"
	OpHardSigmoid       OpType = "HardSigmoid"
	OpMaxPool           OpType = "MaxPool"
	OpAveragePool       OpType = "AveragePool"
	OpGlobalAveragePool OpType = "GlobalAveragePool"
	OpGemm              OpType = "Gemm"
	OpFlatten           OpType = "Flatten"
	OpConcat            OpType = "Concat"
	OpBatchNorm         OpType = "BatchNormalization"
	OpReduceMean        OpType = "ReduceMean"
	OpSoftmax           OpType = "Softmax"
	OpLRN               OpType = "LRN"
	OpDropout           OpType = "Dropout"
	OpIdentity          OpType = "Identity"
)

// AllOpTypes lists every supported operator in a fixed order. The feature
// extractor uses the index in this slice as the operator's one-hot code, so
// the order is part of the (serialized-model ↔ predictor) contract and must
// only ever be appended to.
var AllOpTypes = []OpType{
	OpConv, OpRelu, OpClip, OpAdd, OpMul, OpSigmoid, OpHardSigmoid,
	OpMaxPool, OpAveragePool, OpGlobalAveragePool, OpGemm, OpFlatten,
	OpConcat, OpBatchNorm, OpReduceMean, OpSoftmax, OpLRN, OpDropout,
	OpIdentity,
}

// OpCode returns the dense integer code of op (its index in AllOpTypes) and
// whether the operator is known.
func OpCode(op OpType) (int, bool) {
	for i, o := range AllOpTypes {
		if o == op {
			return i, true
		}
	}
	return -1, false
}

// Shape is a tensor shape in NCHW (or [N, F] for flattened tensors).
type Shape []int

// Clone returns a copy of the shape.
func (s Shape) Clone() Shape { return append(Shape(nil), s...) }

// Numel returns the number of elements, or 0 for an empty shape.
func (s Shape) Numel() int64 {
	if len(s) == 0 {
		return 0
	}
	n := int64(1)
	for _, d := range s {
		n *= int64(d)
	}
	return n
}

// Equal reports whether two shapes are identical.
func (s Shape) Equal(t Shape) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

func (s Shape) String() string {
	out := "("
	for i, d := range s {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprint(d)
	}
	return out + ")"
}

// ValueInfo names a graph input tensor and declares its shape.
type ValueInfo struct {
	Name  string
	Shape Shape
}

// Node is one operator in the graph. Its single output tensor is named after
// the node itself.
type Node struct {
	Name   string
	Op     OpType
	Inputs []string // tensor names: graph inputs or producer node names
	Attrs  Attrs
}

// Clone deep-copies the node.
func (n *Node) Clone() *Node {
	return &Node{
		Name:   n.Name,
		Op:     n.Op,
		Inputs: append([]string(nil), n.Inputs...),
		Attrs:  n.Attrs.Clone(),
	}
}

// Graph is a weight-free DNN computation graph: the unit stored in the
// latency database and fed to both the hardware simulator and the
// predictors.
type Graph struct {
	Name    string
	Family  string // model family label, e.g. "ResNet" (used by experiments)
	Inputs  []ValueInfo
	Nodes   []*Node
	Outputs []string

	// derived is the one slot for state computed from the graph: its Index
	// and what other packages hang off it (graph-hash state, extracted
	// features). It is never serialized, is dropped by Clone, and must be
	// cleared with InvalidateMemo by any code that mutates topology or
	// attributes after first use.
	derived atomic.Pointer[Index]
}

// InvalidateMemo drops all cached derived state. Call it after mutating a
// graph's nodes, attributes or outputs once it may have been validated,
// hashed, shape-inferred or feature-extracted, and after changing input
// shapes once it may have been feature-extracted.
func (g *Graph) InvalidateMemo() { g.derived.Store(nil) }

// Clone deep-copies the graph.
func (g *Graph) Clone() *Graph {
	out := &Graph{
		Name:    g.Name,
		Family:  g.Family,
		Inputs:  make([]ValueInfo, len(g.Inputs)),
		Nodes:   make([]*Node, len(g.Nodes)),
		Outputs: append([]string(nil), g.Outputs...),
	}
	for i, vi := range g.Inputs {
		out.Inputs[i] = ValueInfo{Name: vi.Name, Shape: vi.Shape.Clone()}
	}
	for i, n := range g.Nodes {
		out.Nodes[i] = n.Clone()
	}
	return out
}

// NumNodes returns the operator count.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// Node returns the node with the given name, or nil.
func (g *Graph) Node(name string) *Node {
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// Validate checks structural well-formedness: unique names, resolvable
// inputs, known operators, at least one declared input and output,
// acyclicity, and positive declared input shapes. The structural part is the
// Index build, so it runs once per graph instance; input shapes are checked
// on every call because callers may rewrite them without InvalidateMemo.
func (g *Graph) Validate() error {
	if _, err := g.Index(); err != nil {
		return err
	}
	for i := range g.Inputs {
		vi := &g.Inputs[i]
		if len(vi.Shape) == 0 {
			return fmt.Errorf("onnx: input %q has no shape", vi.Name)
		}
		for _, d := range vi.Shape {
			if d <= 0 {
				return fmt.Errorf("onnx: input %q has non-positive dim in %v", vi.Name, vi.Shape)
			}
		}
	}
	return nil
}

// BatchSize returns the leading dimension of the first graph input, the
// batch size the paper stores alongside every latency record.
func (g *Graph) BatchSize() int {
	if len(g.Inputs) == 0 || len(g.Inputs[0].Shape) == 0 {
		return 0
	}
	return g.Inputs[0].Shape[0]
}
