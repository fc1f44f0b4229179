package hwsim

import (
	"fmt"
	"math"

	"nnlqp/internal/onnx"
)

// hash01 maps (seed, signature) to a deterministic value in [0,1): the
// source of per-platform operator idiosyncrasy. FNV-style mixing keeps it
// cheap and stable across runs.
func hash01(seed uint64, sig string) float64 {
	h := seed ^ 0xcbf29ce484222325
	for i := 0; i < len(sig); i++ {
		h ^= uint64(sig[i])
		h *= 0x100000001b3
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return float64(h%1_000_000) / 1_000_000.0
}

// log2Bucket buckets a positive integer by log2, so that "similar" channel
// counts share an idiosyncrasy signature and the surface stays learnable.
func log2Bucket(v int64) int {
	if v <= 0 {
		return 0
	}
	return int(math.Log2(float64(v)))
}

// opSignature builds the idiosyncrasy key for a node: operator type plus
// the coarse attributes that select a device code path (kernel size,
// stride, grouping class, channel bucket).
func opSignature(n *onnx.Node, out onnx.Shape) string {
	k := n.Attrs.Ints("kernel_shape", nil)
	st := n.Attrs.Ints("strides", nil)
	group := n.Attrs.Int("group", 1)
	gclass := "dense"
	if group > 1 {
		gclass = "grouped"
		if len(out) == 4 && group == int64(out[1]) {
			gclass = "depthwise"
		}
	}
	cb := 0
	if len(out) >= 2 {
		cb = log2Bucket(int64(out[1]))
	}
	return fmt.Sprintf("%s|k=%v|s=%v|g=%s|cb=%d", n.Op, k, st, gclass, cb)
}

// nodeEfficiency returns the fraction of peak throughput the node's compute
// achieves on the platform, in (0, 1].
func (p *Platform) nodeEfficiency(n *onnx.Node, out onnx.Shape, flops int64) float64 {
	// Base efficiency by operator class: dense conv and GEMM map well to
	// MAC arrays; memory-bound elementwise ops are accounted on the memory
	// side, so their compute efficiency matters little but stays below 1.
	eff := 0.75
	switch n.Op {
	case onnx.OpConv:
		eff = 0.85
		group := n.Attrs.Int("group", 1)
		if group > 1 {
			if len(out) == 4 && group == int64(out[1]) {
				eff *= p.DepthwiseEff // depthwise: poor MAC-array utilization
			} else {
				eff *= (1 + p.DepthwiseEff) / 2 // grouped: in between
			}
		}
		// Channel alignment (Tensor Core tiles, NNIE vector lanes).
		if p.AlignCh > 1 && len(out) == 4 && out[1]%p.AlignCh != 0 {
			eff *= p.AlignPenalty
		}
		// 1x1 convs stress memory systems; their MAC utilization dips.
		if k := n.Attrs.Ints("kernel_shape", nil); len(k) == 2 && k[0] == 1 && k[1] == 1 {
			eff *= 0.8
		}
	case onnx.OpGemm:
		eff = 0.7
		if p.AlignCh > 1 && len(out) == 2 && out[1]%p.AlignCh != 0 {
			eff *= p.AlignPenalty
		}
	case onnx.OpLRN, onnx.OpSoftmax, onnx.OpSigmoid, onnx.OpHardSigmoid:
		eff = 0.25 // transcendental / normalization paths
	}
	// Small-work underutilization ramp.
	eff *= float64(flops) / (float64(flops) + p.RampFLOPs)
	// Deterministic per-signature idiosyncrasy in [1-amp, 1+amp].
	eff *= 1 + p.IdioAmp*(2*hash01(p.IdioSeed, opSignature(n, out))-1)
	if eff <= 1e-6 {
		eff = 1e-6
	}
	if eff > 1 {
		eff = 1
	}
	return eff
}

// KernelCost is the latency decomposition of one fused kernel on one
// platform.
type KernelCost struct {
	ComputeSec float64
	MemorySec  float64
	LaunchSec  float64
	// Bytes of external traffic (inputs + output + weights) the kernel
	// moves when executed inside a model, i.e. after intra-kernel tensors
	// are elided.
	TrafficBytes int64
}

// kernelCost prices one fused kernel. Shapes and per-node costs must come
// from the same graph the kernel was cut from.
func (p *Platform) kernelCost(k *Kernel, shapes onnx.ShapeMap, costs map[string]onnx.NodeCost) (KernelCost, error) {
	var kc KernelCost
	var computeSec float64
	inKernel := make(map[string]bool, len(k.Nodes))
	for _, n := range k.Nodes {
		inKernel[n.Name] = true
	}
	for _, n := range k.Nodes {
		if !p.SupportsOp(string(n.Op)) {
			return KernelCost{}, &UnsupportedOpError{Platform: p.Name, Op: string(n.Op), Node: n.Name}
		}
		if absorbable(n.Op) {
			continue // folded away at deployment
		}
		nc, ok := costs[n.Name]
		if !ok {
			return KernelCost{}, fmt.Errorf("hwsim: no cost for node %q", n.Name)
		}
		out := shapes[n.Name]
		eff := p.nodeEfficiency(n, out, nc.FLOPs)
		computeSec += float64(nc.FLOPs) / (p.PeakGFLOPS * 1e9 * eff)
		kc.TrafficBytes += weightBytesFor(nc, p.ElemSize)
	}
	// External traffic: kernel inputs read once, output written once;
	// intra-kernel tensors live in registers/SRAM.
	for _, in := range k.Inputs {
		s, ok := shapes[in]
		if !ok {
			return KernelCost{}, fmt.Errorf("hwsim: no shape for kernel input %q", in)
		}
		kc.TrafficBytes += s.Numel() * int64(p.ElemSize)
	}
	outShape, ok := shapes[k.Output]
	if !ok {
		return KernelCost{}, fmt.Errorf("hwsim: no shape for kernel output %q", k.Output)
	}
	kc.TrafficBytes += outShape.Numel() * int64(p.ElemSize)

	kc.ComputeSec = computeSec
	kc.MemorySec = float64(kc.TrafficBytes) / (p.MemBWGBps * 1e9)
	kc.LaunchSec = p.LaunchOverheadUS * 1e-6
	return kc, nil
}

// weightBytesFor converts fp32 weight accounting from onnx.NodeCost to the
// platform's element size.
func weightBytesFor(nc onnx.NodeCost, elemSize int) int64 {
	// onnx.Cost is computed with the platform's element size already; the
	// helper exists to keep the conversion in one place should mixed
	// precision be added.
	_ = elemSize
	return nc.WeightBytes
}

// StandaloneKernelSec prices a kernel executed in isolation, the way the
// kernel-level datasets of nn-Meter/TPU are collected: every node pays its
// full input+output+weight traffic and its own launch overhead, and no
// inter-kernel overlap exists. This is what makes Σ kernels > model
// (Fig. 2).
func (p *Platform) StandaloneKernelSec(k *Kernel, shapes onnx.ShapeMap, costs map[string]onnx.NodeCost) (float64, error) {
	var total float64
	launches := 0
	for _, n := range k.Nodes {
		if !p.SupportsOp(string(n.Op)) {
			return 0, &UnsupportedOpError{Platform: p.Name, Op: string(n.Op), Node: n.Name}
		}
		if absorbable(n.Op) {
			continue
		}
		nc := costs[n.Name]
		out := shapes[n.Name]
		eff := p.nodeEfficiency(n, out, nc.FLOPs)
		compute := float64(nc.FLOPs) / (p.PeakGFLOPS * 1e9 * eff)
		mem := float64(nc.MAC()) / (p.MemBWGBps * 1e9)
		total += math.Max(compute, mem)
		launches++
	}
	if launches == 0 {
		launches = 1
	}
	// Standalone measurement also pays a fresh dispatch per launch.
	total += float64(launches) * p.LaunchOverheadUS * 1e-6
	return total, nil
}

// UnsupportedOpError reports a model/platform incompatibility, the error
// class NNLQ surfaces to users ("error messages will be returned if
// failed").
type UnsupportedOpError struct {
	Platform string
	Op       string
	Node     string
}

func (e *UnsupportedOpError) Error() string {
	return fmt.Sprintf("hwsim: operator %s (node %s) is not supported by platform %s", e.Op, e.Node, e.Platform)
}
