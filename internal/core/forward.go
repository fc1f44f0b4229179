package core

import (
	"fmt"

	"nnlqp/internal/feats"
	"nnlqp/internal/gnn"
	"nnlqp/internal/onnx"
	"nnlqp/internal/tensor"
)

// This file is the one inference forward. Every prediction — a planned
// Predict, a packed batch, PredictAll over every head — reaches forward as
// packed, normalized rows: the node-feature rows of B graphs concatenated into
// one (Σ nodes)×FeatureDim matrix, each graph's adjacency offset into its row
// range (so no edge ever crosses a graph boundary), B+1 segment offsets and B
// static vectors. SumPool reduces per-graph row segments, and each requested
// head evaluates all B embeddings in one B×dim pass. Every kernel in that
// chain is row-independent (matmul rows, mean aggregation, L2 row norms, ReLU,
// bias add), so a graph's answer does not depend on what it was packed with:
// batching changes throughput, never answers. The property tests in
// batch_test.go pin this at widths 1/2/7/32.
//
// The win over B solo calls is amortization: the blocked matmul streams each
// weight panel once per (Σ nodes) rows instead of once per graph's nodes, and
// per-call overhead (scratch bookkeeping, head dispatch) is paid once per
// batch. PredictAll gets the other amortization: one backbone pass feeds
// every platform head (the single multi-head model of the paper's Table 6).

// rows is one packed, normalized forward input. A compiled graphPlan holds one
// (B = 1, read-only once built); a pooled workspace reuses one across calls.
type rows struct {
	x       *tensor.Matrix // packed (Σ nodes)×FeatureDim node features
	csr     gnn.CSR        // packed block-diagonal adjacency, flattened
	segs    []int          // per-graph row offsets, len B+1
	statics []float64      // packed B×StaticDim static features
}

// workspace is one goroutine's pooled inference workspace: the packing
// buffers grow to the largest batch seen and the scratch arena to the widest
// forward, so steady state allocates nothing.
type workspace struct {
	sc *tensor.Scratch
	in rows
}

// workspace takes a workspace from the pool, making one when it is empty.
func (p *Predictor) workspace() *workspace {
	st, _ := p.workspaces.Get().(*workspace)
	if st == nil {
		st = &workspace{sc: tensor.NewScratch()}
	}
	return st
}

// ready reports why the predictor cannot answer on platform, if it cannot.
func (p *Predictor) ready(platform string) error {
	if p.norm == nil {
		return fmt.Errorf("core: predictor not fitted")
	}
	if _, ok := p.heads[platform]; !ok {
		return fmt.Errorf("core: no head for platform %q", platform)
	}
	return nil
}

// pack copies gfs (only read) into in, reusing its buffers, and normalizes
// the packed copies — row-wise, so each graph's rows come out exactly as if
// it had been normalized alone.
func (p *Predictor) pack(in *rows, gfs []*feats.GraphFeatures) {
	total := 0
	for _, gf := range gfs {
		total += gf.X.Rows
	}
	if in.x == nil {
		in.x = &tensor.Matrix{}
	}
	x, n := in.x, total*feats.FeatureDim
	if cap(x.Data) < n {
		x.Data = make([]float64, n)
	}
	x.Rows, x.Cols, x.Data = total, feats.FeatureDim, x.Data[:n]
	if cap(in.statics) < len(gfs)*feats.StaticDim {
		in.statics = make([]float64, len(gfs)*feats.StaticDim)
	}
	in.statics = in.statics[:len(gfs)*feats.StaticDim]
	if cap(in.segs) < len(gfs)+1 {
		in.segs = make([]int, 0, len(gfs)+1)
	}
	in.segs = append(in.segs[:0], 0)
	in.csr.Reset()
	off := 0
	for gi, gf := range gfs {
		copy(x.Data[off*feats.FeatureDim:], gf.X.Data)
		in.csr.AppendGraph(gf.Adj, off)
		static := in.statics[gi*feats.StaticDim : (gi+1)*feats.StaticDim]
		copy(static, gf.Static)
		p.norm.ApplyStatic(static)
		off += gf.X.Rows
		in.segs = append(in.segs, off)
	}
	p.norm.ApplyX(x)
}

// forward is the inference forward: one backbone pass over the packed rows,
// one pass of each named platform's head over the resulting head inputs. It
// appends one decoded latency per (platform, graph) to dst, platform-major,
// and leaves sc reset. Every matrix comes from sc, so with a warm arena the
// call is allocation-free.
func (p *Predictor) forward(dst []float64, sc *tensor.Scratch, in *rows, plats []string) []float64 {
	b := len(in.segs) - 1
	var pooled *tensor.Matrix
	switch {
	case !p.cfg.UseNodeFeats:
		// static only
	case p.cfg.UseGNN:
		h := p.enc.ForwardInferCSR(in.x, &in.csr, p.weightPlanCurrent().stacked, sc)
		pooled = gnn.SumPoolSegmentsScratch(h, in.segs, sc)
	default:
		pooled = gnn.SumPoolSegmentsScratch(in.x, in.segs, sc)
	}

	dim := 0
	if pooled != nil {
		dim = pooled.Cols
	}
	withStatic := p.cfg.UseStatic || dim == 0
	if withStatic {
		dim += feats.StaticDim
	}
	headIn := sc.GetAtLeast(b, dim)
	for gi := 0; gi < b; gi++ {
		row := headIn.Row(gi)
		if pooled != nil {
			emb := row[:pooled.Cols]
			copy(emb, pooled.Row(gi))
			if n := in.segs[gi+1] - in.segs[gi]; p.cfg.MeanPool && n > 0 {
				inv := 1 / float64(n)
				for j := range emb {
					emb[j] *= inv
				}
			}
			row = row[pooled.Cols:]
		}
		if withStatic {
			copy(row, in.statics[gi*feats.StaticDim:(gi+1)*feats.StaticDim])
		}
	}
	for _, plat := range plats {
		pred := p.heads[plat].ForwardInfer(headIn, sc)
		for gi := 0; gi < b; gi++ {
			dst = append(dst, p.decodeTarget(pred.At(gi, 0), plat))
		}
	}
	sc.Reset()
	return dst
}

// predictPacked packs gfs into a pooled workspace and runs forward over it.
func (p *Predictor) predictPacked(dst []float64, gfs []*feats.GraphFeatures, plats []string) []float64 {
	st := p.workspace()
	p.pack(&st.in, gfs)
	dst = p.forward(dst, st.sc, &st.in, plats)
	p.workspaces.Put(st)
	return dst
}

// Extract runs (memoized) feature extraction for g under this predictor's
// configuration, for callers that validate graphs individually before
// predicting the resulting feature sets (PredictSamplesInto, PredictAll).
func (p *Predictor) Extract(g *onnx.Graph) (*feats.GraphFeatures, error) {
	return feats.ExtractCached(g, p.cfg.elemSize())
}

// PredictSamplesInto predicts latency (ms) for pre-extracted feature sets
// (only read) on one platform in one packed forward, appending into dst.
// With a reused dst of sufficient capacity the steady-state call is
// allocation-free at any width.
func (p *Predictor) PredictSamplesInto(dst []float64, gfs []*feats.GraphFeatures, platform string) ([]float64, error) {
	if err := p.ready(platform); err != nil {
		return nil, err
	}
	if len(gfs) == 0 {
		return dst, nil
	}
	return p.predictPacked(dst, gfs, []string{platform}), nil
}

// PredictBatch predicts latency (ms) for every graph on one platform in a
// single packed forward pass. Results are positionally aligned with gs and
// bit-identical to calling Predict per graph. Feature extraction is memoized
// per graph exactly as in Predict.
func (p *Predictor) PredictBatch(gs []*onnx.Graph, platform string) ([]float64, error) {
	if err := p.ready(platform); err != nil {
		return nil, err
	}
	if len(gs) == 0 {
		return nil, nil
	}
	gfs := make([]*feats.GraphFeatures, len(gs))
	for i, g := range gs {
		gf, err := p.Extract(g)
		if err != nil {
			return nil, err
		}
		gfs[i] = gf
	}
	return p.predictPacked(make([]float64, 0, len(gs)), gfs, []string{platform}), nil
}

// PredictAll predicts latency (ms) for one graph's extracted features on
// every platform head from one backbone pass — the single-model multi-head
// inference whose cost advantage §8.5 reports. Each answer is bit-identical
// to that platform's Predict.
func (p *Predictor) PredictAll(gf *feats.GraphFeatures) (map[string]float64, error) {
	if p.norm == nil {
		return nil, fmt.Errorf("core: predictor not fitted")
	}
	plats := p.Platforms()
	vals := p.predictPacked(make([]float64, 0, len(plats)), []*feats.GraphFeatures{gf}, plats)
	out := make(map[string]float64, len(plats))
	for i, plat := range plats {
		out[plat] = vals[i]
	}
	return out, nil
}
