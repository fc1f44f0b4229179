package models

import (
	"fmt"
	"math/rand"

	"nnlqp/internal/onnx"
)

// The paper notes that recurrent models "will finally be unfolded", so
// loops become DAGs and the graph hash / unified embedding apply unchanged.
// This file builds such unfolded recurrences: a GRU-flavoured cell
// (gates from Gemm + Sigmoid, candidate mixing with Mul/Add) unrolled over
// a fixed number of time steps, each step reading its own graph input.

// RNNConfig parameterizes the unrolled recurrent model.
type RNNConfig struct {
	Batch     int
	InputDim  int
	Hidden    int
	Steps     int
	NumLayers int
	Classes   int
}

// BaseRNN is a modest single-layer configuration.
func BaseRNN(batch int) RNNConfig {
	return RNNConfig{Batch: batch, InputDim: 128, Hidden: 256, Steps: 8, NumLayers: 1, Classes: 10}
}

// BuildUnrolledRNN constructs the unfolded graph. Time step t reads graph
// input "input" (t=0) or "input_t<t>" and mixes it with the hidden state:
//
//	z_t = Sigmoid(W_z·[x_t] + U_z·[h_{t-1}])        (update gate)
//	hc  = Relu(W_h·[x_t] + U_h·[h_{t-1}])           (candidate)
//	h_t = z_t ⊙ hc + (1-z_t-ish) via residual Add    (simplified mixing)
func BuildUnrolledRNN(cfg RNNConfig) *onnx.Graph {
	b := onnx.NewBuilder("unrolled-rnn", "RNN", onnx.Shape{cfg.Batch, cfg.InputDim})
	steps := make([]string, cfg.Steps)
	steps[0] = b.Input()
	for t := 1; t < cfg.Steps; t++ {
		steps[t] = b.AddInput(fmt.Sprintf("input_t%d", t), onnx.Shape{cfg.Batch, cfg.InputDim})
	}
	// Initial hidden state derived from the first input.
	h := b.Relu(b.Gemm(steps[0], cfg.Hidden))
	for layer := 0; layer < cfg.NumLayers; layer++ {
		for t := 0; t < cfg.Steps; t++ {
			x := steps[t]
			if layer > 0 {
				x = h // deeper layers consume the running state
			}
			z := b.Sigmoid(b.AddTensors(b.Gemm(x, cfg.Hidden), b.Gemm(h, cfg.Hidden)))
			hc := b.Relu(b.AddTensors(b.Gemm(x, cfg.Hidden), b.Gemm(h, cfg.Hidden)))
			h = b.AddTensors(b.MulTensors(z, hc), h)
		}
	}
	out := b.Gemm(h, cfg.Classes)
	return b.MustFinish(b.Add(onnx.OpSoftmax, onnx.Attrs{"axis": onnx.IntAttr(-1)}, out))
}

// RNNVariant draws a random unrolled recurrence (hidden width, depth,
// sequence length).
func RNNVariant(rng *rand.Rand, batch int) *onnx.Graph {
	cfg := BaseRNN(batch)
	cfg.Hidden = roundCh(float64(cfg.Hidden)*widthMult(rng, 0.5, 1.5), 32)
	cfg.InputDim = roundCh(float64(cfg.InputDim)*widthMult(rng, 0.5, 1.5), 32)
	cfg.Steps = 4 + rng.Intn(9) // 4..12
	cfg.NumLayers = 1 + rng.Intn(2)
	return BuildUnrolledRNN(cfg)
}
