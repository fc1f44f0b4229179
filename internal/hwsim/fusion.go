package hwsim

import (
	"slices"
	"sort"
	"strings"

	"nnlqp/internal/onnx"
)

// Kernel is a maximal fused group of operators: the unit the device
// dispatches and the unit the kernel-level baselines (nn-Meter, TPU)
// predict. Nodes appear in execution order.
type Kernel struct {
	Nodes []*onnx.Node
	// Family is the fusion-pattern label, e.g. "Conv+Add+Relu". Absorbed
	// deploy-time no-ops (BatchNorm folding, Dropout, Identity) do not
	// contribute to the label, matching how TensorRT reports fused layers.
	Family string
	// Inputs are tensor names read from outside the kernel; Output is the
	// tensor the kernel materializes.
	Inputs []string
	Output string
}

// absorbable ops are removed at deployment: BatchNorm folds into the
// producer's weights, Dropout and Identity are inference no-ops.
func absorbable(op onnx.OpType) bool {
	return op == onnx.OpBatchNorm || op == onnx.OpDropout || op == onnx.OpIdentity
}

// Kernelize splits a graph into fused kernels using TensorRT-style rules:
//
//   - BatchNorm / Dropout / Identity are absorbed into their producer.
//   - Conv absorbs a following Add (residual) when the Conv is the Add's
//     sole producer-side branch, then a following Relu/Clip.
//   - Conv absorbs a directly-following Relu or Clip.
//   - Sigmoid/HardSigmoid fuse with the Mul that gates their own input
//     (the swish / hard-swish pattern, reported as "Sigmoid+Mul").
//
// Every node lands in exactly one kernel. The resulting families match the
// paper's Appendix D taxonomy (Conv, Conv+Relu, Conv+Add, Conv+Add+Relu,
// Conv+Clip, Sigmoid+Mul, plus one family per remaining standalone op).
func Kernelize(g *onnx.Graph) ([]*Kernel, error) {
	ix, err := g.Index()
	if err != nil {
		return nil, err
	}
	n := ix.NumNodes()
	isOutput := make([]bool, n)
	for _, o := range ix.Outputs {
		if o >= 0 {
			isOutput[o] = true
		}
	}
	// kernelOf[v] is the index of the kernel node v landed in, or -1.
	kernelOf := make([]int32, n)
	for i := range kernelOf {
		kernelOf[i] = -1
	}

	// soleConsumer returns the unique consumer of node v's output, or -1
	// when it has 0 or >1 consuming edges or is a graph output (graph
	// outputs must be materialized, so fusion stops there).
	soleConsumer := func(v int32) int32 {
		if cs := ix.Consumers(v); len(cs) == 1 && !isOutput[v] {
			return cs[0]
		}
		return -1
	}

	var kernels []*Kernel
	var members [][]int32 // node ids of each kernel, parallel to kernels
	add := func(k *Kernel, v int32) {
		k.Nodes = append(k.Nodes, g.Nodes[v])
		kernelOf[v] = int32(len(kernels))
		members[len(kernels)] = append(members[len(kernels)], v)
	}
	// absorbTail greedily appends absorbable ops following node tail.
	absorbTail := func(k *Kernel, tail int32) int32 {
		for {
			c := soleConsumer(tail)
			if c < 0 || !absorbable(g.Nodes[c].Op) || kernelOf[c] >= 0 {
				return tail
			}
			add(k, c)
			tail = c
		}
	}
	// free reports whether c is an unassigned node running one of ops.
	free := func(c int32, ops ...onnx.OpType) bool {
		if c < 0 || kernelOf[c] >= 0 {
			return false
		}
		for _, op := range ops {
			if g.Nodes[c].Op == op {
				return true
			}
		}
		return false
	}

	for _, v := range ix.Topo {
		if kernelOf[v] >= 0 {
			continue
		}
		nd := g.Nodes[v]
		k := &Kernel{}
		members = append(members, nil)
		add(k, v)
		famOps := []string{string(nd.Op)}
		tail := absorbTail(k, v)

		switch nd.Op {
		case onnx.OpConv:
			c := soleConsumer(tail)
			if free(c, onnx.OpAdd) {
				// Residual: the other Add input must already be available
				// (produced by an earlier kernel), which topological order
				// guarantees for everything except self-references.
				add(k, c)
				famOps = append(famOps, "Add")
				tail = absorbTail(k, c)
				c = soleConsumer(tail)
			}
			if free(c, onnx.OpRelu, onnx.OpClip) {
				add(k, c)
				famOps = append(famOps, string(g.Nodes[c].Op))
				tail = absorbTail(k, c)
			}
		case onnx.OpSigmoid, onnx.OpHardSigmoid:
			c := soleConsumer(tail)
			if free(c, onnx.OpMul) {
				// Require the swish pattern: Mul's other input equals the
				// activation's own input.
				other, found := int32(0), false
				for _, in := range ix.Inputs(c) {
					if in != tail {
						other, found = in, true
					}
				}
				if found && other == ix.Inputs(v)[0] {
					add(k, c)
					famOps = []string{"Sigmoid", "Mul"} // canonical family name
					tail = absorbTail(k, c)
				}
			}
		}

		k.Family = strings.Join(famOps, "+")
		k.Output = g.Nodes[tail].Name
		kernels = append(kernels, k)
	}

	// External inputs per kernel: every tensor read from outside it, once.
	for ki, k := range kernels {
		for _, v := range members[ki] {
			for j, in := range ix.Inputs(v) {
				if in >= 0 && kernelOf[in] == int32(ki) {
					continue
				}
				if name := g.Nodes[v].Inputs[j]; !slices.Contains(k.Inputs, name) {
					k.Inputs = append(k.Inputs, name)
				}
			}
		}
		sort.Strings(k.Inputs)
	}
	return kernels, nil
}

// KernelFamilyStats counts kernels per family across a set of graphs
// (paper Table 8).
func KernelFamilyStats(graphs []*onnx.Graph) (map[string]int, int, error) {
	counts := make(map[string]int)
	total := 0
	for _, g := range graphs {
		ks, err := Kernelize(g)
		if err != nil {
			return nil, 0, err
		}
		for _, k := range ks {
			counts[k.Family]++
			total++
		}
	}
	return counts, total, nil
}
