package onnx

import "fmt"

// ShapeMap holds the inferred output shape of every tensor in a graph,
// keyed by tensor name (graph inputs and node outputs).
type ShapeMap map[string]Shape

// InferShapes statically computes the output shape of every node. Attribute
// conventions follow ONNX: Conv/pooling use kernel_shape, strides, pads
// (top,left,bottom,right) and dilations; Conv additionally takes `channels`
// (output channel count, standing in for the weight tensor we do not store)
// and `group`; Gemm takes `out_features`; Concat takes `axis`.
func (g *Graph) InferShapes() (ShapeMap, error) {
	ix, err := g.Index()
	if err != nil {
		return nil, err
	}
	shapes := make(ShapeMap, len(g.Nodes)+len(g.Inputs))
	for _, vi := range g.Inputs {
		shapes[vi.Name] = vi.Shape.Clone()
	}
	byID := make([]Shape, len(g.Nodes))
	var ins []Shape
	for _, v := range ix.Topo {
		n := g.Nodes[v]
		ins = ins[:0]
		for _, in := range ix.Inputs(v) {
			if in >= 0 {
				ins = append(ins, byID[in])
			} else {
				ins = append(ins, g.Inputs[^in].Shape)
			}
		}
		out, err := inferNodeShape(n, ins)
		if err != nil {
			return nil, fmt.Errorf("onnx: node %q (%s): %w", n.Name, n.Op, err)
		}
		byID[v] = out
		shapes[n.Name] = out
	}
	return shapes, nil
}

func inferNodeShape(n *Node, ins []Shape) (Shape, error) {
	switch n.Op {
	case OpConv:
		return inferConv(n, ins)
	case OpMaxPool, OpAveragePool:
		return inferPool(n, ins)
	case OpGlobalAveragePool:
		if err := want4D(ins[0]); err != nil {
			return nil, err
		}
		return Shape{ins[0][0], ins[0][1], 1, 1}, nil
	case OpGemm:
		return inferGemm(n, ins)
	case OpFlatten:
		if len(ins[0]) < 2 {
			return nil, fmt.Errorf("flatten needs rank>=2, got %v", ins[0])
		}
		flat := 1
		for _, d := range ins[0][1:] {
			flat *= d
		}
		return Shape{ins[0][0], flat}, nil
	case OpConcat:
		return inferConcat(n, ins)
	case OpAdd, OpMul:
		return inferBroadcastBinary(ins)
	case OpReduceMean:
		return inferReduceMean(n, ins)
	case OpRelu, OpClip, OpSigmoid, OpHardSigmoid, OpBatchNorm, OpSoftmax,
		OpLRN, OpDropout, OpIdentity:
		// Elementwise / normalization ops preserve shape.
		return ins[0].Clone(), nil
	default:
		return nil, fmt.Errorf("no shape rule for op %q", n.Op)
	}
}

func want4D(s Shape) error {
	if len(s) != 4 {
		return fmt.Errorf("expected NCHW input, got %v", s)
	}
	return nil
}

// spatialOut computes one spatial output dimension for conv/pool:
// floor((in + padA + padB - dilation*(kernel-1) - 1)/stride) + 1.
func spatialOut(in, kernel, stride, padA, padB, dilation int) (int, error) {
	eff := dilation*(kernel-1) + 1
	num := in + padA + padB - eff
	if num < 0 {
		return 0, fmt.Errorf("kernel %d (dilation %d) larger than padded input %d", kernel, dilation, in+padA+padB)
	}
	if stride <= 0 {
		return 0, fmt.Errorf("non-positive stride %d", stride)
	}
	return num/stride + 1, nil
}

// convSpatial resolves kernel/stride/pads/dilations attributes and computes
// the output H,W for a conv or pooling node.
func convSpatial(n *Node, in Shape) (outH, outW int, err error) {
	k := n.Attrs.Ints("kernel_shape", []int64{1, 1})
	st := n.Attrs.Ints("strides", []int64{1, 1})
	pads := n.Attrs.Ints("pads", []int64{0, 0, 0, 0})
	dil := n.Attrs.Ints("dilations", []int64{1, 1})
	if len(k) != 2 || len(st) != 2 || len(pads) != 4 || len(dil) != 2 {
		return 0, 0, fmt.Errorf("bad spatial attrs k=%v s=%v p=%v d=%v", k, st, pads, dil)
	}
	outH, err = spatialOut(in[2], int(k[0]), int(st[0]), int(pads[0]), int(pads[2]), int(dil[0]))
	if err != nil {
		return 0, 0, fmt.Errorf("height: %w", err)
	}
	outW, err = spatialOut(in[3], int(k[1]), int(st[1]), int(pads[1]), int(pads[3]), int(dil[1]))
	if err != nil {
		return 0, 0, fmt.Errorf("width: %w", err)
	}
	return outH, outW, nil
}

func inferConv(n *Node, ins []Shape) (Shape, error) {
	if err := want4D(ins[0]); err != nil {
		return nil, err
	}
	outC := int(n.Attrs.Int("channels", 0))
	if outC <= 0 {
		return nil, fmt.Errorf("conv missing positive `channels` attr")
	}
	group := int(n.Attrs.Int("group", 1))
	if group <= 0 || ins[0][1]%group != 0 || outC%group != 0 {
		return nil, fmt.Errorf("invalid group %d for Cin=%d Cout=%d", group, ins[0][1], outC)
	}
	h, w, err := convSpatial(n, ins[0])
	if err != nil {
		return nil, err
	}
	return Shape{ins[0][0], outC, h, w}, nil
}

func inferPool(n *Node, ins []Shape) (Shape, error) {
	if err := want4D(ins[0]); err != nil {
		return nil, err
	}
	h, w, err := convSpatial(n, ins[0])
	if err != nil {
		return nil, err
	}
	return Shape{ins[0][0], ins[0][1], h, w}, nil
}

func inferGemm(n *Node, ins []Shape) (Shape, error) {
	if len(ins[0]) != 2 {
		return nil, fmt.Errorf("gemm needs rank-2 input, got %v", ins[0])
	}
	outF := int(n.Attrs.Int("out_features", 0))
	if outF <= 0 {
		return nil, fmt.Errorf("gemm missing positive `out_features` attr")
	}
	return Shape{ins[0][0], outF}, nil
}

func inferConcat(n *Node, ins []Shape) (Shape, error) {
	if len(ins) < 2 {
		return nil, fmt.Errorf("concat needs >=2 inputs")
	}
	axis := int(n.Attrs.Int("axis", 1))
	base := ins[0].Clone()
	if axis < 0 || axis >= len(base) {
		return nil, fmt.Errorf("concat axis %d out of range for %v", axis, base)
	}
	for _, s := range ins[1:] {
		if len(s) != len(base) {
			return nil, fmt.Errorf("concat rank mismatch %v vs %v", base, s)
		}
		for d := range s {
			if d == axis {
				continue
			}
			if s[d] != base[d] {
				return nil, fmt.Errorf("concat dim %d mismatch %v vs %v", d, base, s)
			}
		}
		base[axis] += s[axis]
	}
	return base, nil
}

// inferBroadcastBinary supports equal shapes and per-channel broadcast
// ([N,C,H,W] op [N,C,1,1]), the two patterns residual adds and
// squeeze-excite gates produce.
func inferBroadcastBinary(ins []Shape) (Shape, error) {
	if len(ins) != 2 {
		return nil, fmt.Errorf("binary op needs exactly 2 inputs, got %d", len(ins))
	}
	a, b := ins[0], ins[1]
	if a.Equal(b) {
		return a.Clone(), nil
	}
	if len(a) == 4 && len(b) == 4 && a[0] == b[0] && a[1] == b[1] {
		if b[2] == 1 && b[3] == 1 {
			return a.Clone(), nil
		}
		if a[2] == 1 && a[3] == 1 {
			return b.Clone(), nil
		}
	}
	return nil, fmt.Errorf("incompatible shapes %v and %v", a, b)
}

func inferReduceMean(n *Node, ins []Shape) (Shape, error) {
	axes := n.Attrs.Ints("axes", []int64{2, 3})
	keep := n.Attrs.Int("keepdims", 1) != 0
	in := ins[0]
	reduce := make(map[int]bool, len(axes))
	for _, a := range axes {
		ai := int(a)
		if ai < 0 {
			ai += len(in)
		}
		if ai < 0 || ai >= len(in) {
			return nil, fmt.Errorf("reduce axis %d out of range for %v", a, in)
		}
		reduce[ai] = true
	}
	var out Shape
	for i, d := range in {
		if reduce[i] {
			if keep {
				out = append(out, 1)
			}
			continue
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		out = Shape{1}
	}
	return out, nil
}
