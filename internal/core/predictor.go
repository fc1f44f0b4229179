// Package core implements NNLP, the paper's primary contribution (§6): a
// latency predictor built on the unified graph embedding — a shared
// GraphSAGE backbone f(;α) that encodes any ONNX graph, sum-pooling readout
// concatenated with the graph's static features (Eq. 5), and per-platform
// prediction heads g(;β_P) trained jointly (Algorithm 1). Transfer learning
// for unseen structures, unseen platforms and new tasks (Fig. 5) reuses the
// shared backbone and fine-tunes.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"nnlqp/internal/feats"
	"nnlqp/internal/gnn"
	"nnlqp/internal/onnx"
	"nnlqp/internal/tensor"
	"nnlqp/internal/train"
)

// Config controls predictor architecture and training.
type Config struct {
	// Hidden is the SAGE layer width; Depth the number of SAGE layers (the
	// paper's d).
	Hidden int
	Depth  int
	// HeadHidden is the FC width of each prediction head; Dropout its
	// dropout probability.
	HeadHidden int
	Dropout    float64
	// LR / Epochs / BatchSize follow §8.1 (Adam, lr=0.001, batch 16).
	LR        float64
	Epochs    int
	BatchSize int
	// Seed makes initialization and shuffling deterministic.
	Seed int64
	// Workers caps the goroutines computing per-sample gradients within a
	// batch and the fan-out of read paths (<=0 → GOMAXPROCS). Training
	// results are bit-identical for any value.
	Workers int
	// ElemSize is the tensor element width in bytes used when extracting
	// features from a raw graph (<=0 → 4, fp32).
	ElemSize int
	// LogTarget regresses log-latency instead of raw latency. Latencies in
	// the fleet span three orders of magnitude, so this is on by default;
	// the ablation bench compares both. (Design decision documented in
	// DESIGN.md.)
	LogTarget bool

	// RelativeLoss weights each sample's squared error by 1/y², turning
	// the MSE into a relative (MAPE-aligned) objective. Useful with
	// LogTarget=false, where raw-latency MSE would be dominated by the
	// largest models.
	RelativeLoss bool

	// EarlyStop holds out 10% of the training set as a validation split,
	// tracks validation MSE per epoch, and restores the best-epoch weights
	// at the end of training. Disabled automatically for tiny sets.
	EarlyStop bool

	// NoFinalNorm skips the L2 normalization on the last SAGE layer so the
	// sum readout can carry per-node magnitudes (latency is close to
	// additive over operators).
	NoFinalNorm bool

	// MeanPool divides the Eq. 5 sum readout by the node count. The paper
	// uses a plain sum; at small training scales the sum's node-count-
	// proportional magnitude extrapolates badly to unseen families, so the
	// mean is the default here (graph size information still reaches the
	// head through F_G^static). The ablation bench compares both; see
	// DESIGN.md.
	MeanPool bool

	// Ablation switches (Table 4). All true for the full NNLP.
	UseNodeFeats bool // false = wo/Fv0: predict from static features only
	UseGNN       bool // false = wo/gnn: node features pooled directly
	UseStatic    bool // false = wo/F_G^static: no static concat
}

// DefaultConfig returns the full-NNLP configuration at a size that trains
// in seconds-to-minutes on a CPU.
func DefaultConfig() Config {
	return Config{
		Hidden: 48, Depth: 3, HeadHidden: 48, Dropout: 0.05,
		LR: 1e-3, Epochs: 30, BatchSize: 16, Seed: 1, ElemSize: 4,
		LogTarget: true, MeanPool: true, NoFinalNorm: true, EarlyStop: true,
		UseNodeFeats: true, UseGNN: true, UseStatic: true,
	}
}

// elemSize resolves the effective tensor element width (old gob snapshots
// carry a zero value).
func (c Config) elemSize() int {
	if c.ElemSize > 0 {
		return c.ElemSize
	}
	return 4
}

// Sample is one training/evaluation record: a model (pre-extracted
// features), its measured latency, and the platform it was measured on —
// the (G_i, y_i, p_i) triple of Algorithm 1.
type Sample struct {
	GF        *feats.GraphFeatures
	LatencyMS float64
	Platform  string
}

// NewSample extracts features from a graph.
func NewSample(g *onnx.Graph, latencyMS float64, platform string) (Sample, error) {
	gf, err := feats.Extract(g, 4)
	if err != nil {
		return Sample{}, err
	}
	return Sample{GF: gf, LatencyMS: latencyMS, Platform: platform}, nil
}

// targetStats holds per-platform target normalization.
type targetStats struct {
	Mean float64
	Std  float64
}

// generations hands out process-unique predictor generations. Global (not
// per-predictor) so that two different predictor instances can never share a
// generation: a memo keyed by generation stays correct across hot predictor
// swaps, not just across fine-tunes of one instance.
var generations atomic.Uint64

// Predictor is the NNLP model.
type Predictor struct {
	cfg   Config
	enc   *gnn.Encoder
	heads map[string]*gnn.Head
	norm  *feats.Normalizer
	tgt   map[string]targetStats
	rng   *rand.Rand
	opt   *tensor.Adam

	// gen is the predictor's generation: a process-unique value bumped
	// whenever the weights change (Fit/FineTune entry and exit, Load).
	// Downstream memos key cached predictions by it, so a reload or
	// fine-tune invalidates them implicitly instead of by manual flush.
	gen atomic.Uint64

	// workspaces recycles per-goroutine inference workspaces (packing
	// buffers + scratch arena) so the steady-state forward allocates
	// nothing; see forward.go.
	workspaces sync.Pool

	// wplan caches the encoder's stacked [W1;W2] fused-inference weights,
	// rebuilt once per generation; plans caches per-graph compiled request
	// state (normalized features + CSR adjacency). See plan.go.
	wplan   atomic.Pointer[weightPlan]
	wplanMu sync.Mutex
	plans   *planCache

	// epochHook observes per-epoch training metrics. Not serialized.
	epochHook func(train.EpochMetrics)
}

// Generation returns the predictor's current generation. Values are unique
// across all predictor instances in the process and strictly increase on
// every weight change, so (graphhash, platform, generation) is a sound memo
// key for cached predictions.
func (p *Predictor) Generation() uint64 { return p.gen.Load() }

// bumpGeneration moves the predictor to a fresh process-unique generation.
func (p *Predictor) bumpGeneration() { p.gen.Store(generations.Add(1)) }

// SetEpochHook registers a callback invoked after every training epoch
// (progress logging, convergence tracking). Pass nil to clear it. The hook is
// not part of the serialized model state.
func (p *Predictor) SetEpochHook(fn func(train.EpochMetrics)) { p.epochHook = fn }

// New creates an untrained predictor.
func New(cfg Config) *Predictor {
	p := &Predictor{
		cfg:   cfg,
		heads: make(map[string]*gnn.Head),
		tgt:   make(map[string]targetStats),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		opt:   tensor.NewAdam(cfg.LR),
		plans: newPlanCache(defaultPlanEntries),
	}
	p.bumpGeneration()
	if cfg.UseGNN && cfg.UseNodeFeats {
		if cfg.NoFinalNorm {
			p.enc = gnn.NewEncoderNoFinalNorm(feats.FeatureDim, cfg.Hidden, cfg.Depth, p.rng)
		} else {
			p.enc = gnn.NewEncoder(feats.FeatureDim, cfg.Hidden, cfg.Depth, p.rng)
		}
	}
	return p
}

// Config returns the predictor's configuration.
func (p *Predictor) Config() Config { return p.cfg }

// Platforms lists platforms the predictor has heads for.
func (p *Predictor) Platforms() []string {
	out := make([]string, 0, len(p.heads))
	for name := range p.heads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// headInputDim is the embedding width fed to each head, which depends on
// the ablation configuration.
func (p *Predictor) headInputDim() int {
	dim := 0
	switch {
	case !p.cfg.UseNodeFeats:
		// wo/Fv0: static features only.
	case p.cfg.UseGNN:
		dim = p.cfg.Hidden
	default:
		// wo/gnn: raw node features pooled.
		dim = feats.FeatureDim
	}
	if p.cfg.UseStatic {
		dim += feats.StaticDim
	}
	if dim == 0 {
		// Degenerate double-ablation; keep the head well-formed.
		dim = feats.StaticDim
	}
	return dim
}

// head returns (creating if needed) the head for a platform.
func (p *Predictor) head(platform string) *gnn.Head {
	h, ok := p.heads[platform]
	if !ok {
		h = gnn.NewHead("head."+platform, p.headInputDim(), p.cfg.HeadHidden, p.cfg.Dropout, p.rng)
		p.heads[platform] = h
	}
	return h
}

// allParams returns every parameter in the model.
func (p *Predictor) allParams() []*tensor.Param {
	var ps []*tensor.Param
	if p.enc != nil {
		ps = append(ps, p.enc.Params()...)
	}
	for _, name := range p.Platforms() {
		ps = append(ps, p.heads[name].Params()...)
	}
	return ps
}

// embedCaches holds the forward state of one sample for backprop.
type embedCaches struct {
	gf     *feats.GraphFeatures // normalized copy
	encC   *gnn.EncCache
	pooled *tensor.Matrix
	headIn *tensor.Matrix
}

// embed computes the head input for one (already normalized) sample, drawing
// matrix intermediates from sc (nil allocates). It only reads shared state,
// so concurrent samples may run it against distinct scratch arenas.
func (p *Predictor) embed(gf *feats.GraphFeatures, sc *tensor.Scratch) *embedCaches {
	c := &embedCaches{gf: gf}
	var parts []float64
	switch {
	case !p.cfg.UseNodeFeats:
		// static only
	case p.cfg.UseGNN:
		h, ec := p.enc.ForwardScratch(gf.X, gf.Adj, sc)
		c.encC = ec
		c.pooled = gnn.SumPoolScratch(h, sc)
		if p.cfg.MeanPool && h.Rows > 0 {
			c.pooled.Scale(1 / float64(h.Rows))
		}
		parts = append(parts, c.pooled.Row(0)...)
	default:
		c.pooled = gnn.SumPoolScratch(gf.X, sc)
		if p.cfg.MeanPool && gf.X.Rows > 0 {
			c.pooled.Scale(1 / float64(gf.X.Rows))
		}
		parts = append(parts, c.pooled.Row(0)...)
	}
	if p.cfg.UseStatic || len(parts) == 0 {
		parts = append(parts, gf.Static...)
	}
	c.headIn = sc.Get(1, len(parts))
	copy(c.headIn.Row(0), parts)
	return c
}

// encodeTarget maps a latency to the regression target.
func (p *Predictor) encodeTarget(latencyMS float64, platform string) float64 {
	y := latencyMS
	if p.cfg.LogTarget {
		y = math.Log(math.Max(latencyMS, 1e-9))
	}
	ts := p.tgt[platform]
	return (y - ts.Mean) / ts.Std
}

// decodeTarget inverts encodeTarget. The normalized prediction is clamped
// to ±4 training-set standard deviations: an out-of-distribution graph can
// push the head far outside the fitted range, and exponentiating an
// unbounded extrapolation would turn a bad prediction into an absurd one.
func (p *Predictor) decodeTarget(t float64, platform string) float64 {
	const clamp = 4
	if t > clamp {
		t = clamp
	} else if t < -clamp {
		t = -clamp
	}
	ts := p.tgt[platform]
	y := t*ts.Std + ts.Mean
	if p.cfg.LogTarget {
		return math.Exp(y)
	}
	return y
}

// fitTargets computes per-platform target statistics over a training set,
// keeping existing entries (so fine-tuning on an unseen platform adds its
// stats without disturbing the others).
func (p *Predictor) fitTargets(samples []Sample) {
	sums := make(map[string]*[3]float64) // n, sum, sumsq
	for _, s := range samples {
		if _, exists := p.tgt[s.Platform]; exists {
			continue
		}
		y := s.LatencyMS
		if p.cfg.LogTarget {
			y = math.Log(math.Max(y, 1e-9))
		}
		acc, ok := sums[s.Platform]
		if !ok {
			acc = &[3]float64{}
			sums[s.Platform] = acc
		}
		acc[0]++
		acc[1] += y
		acc[2] += y * y
	}
	for plat, acc := range sums {
		mean := acc[1] / acc[0]
		variance := acc[2]/acc[0] - mean*mean
		std := math.Sqrt(math.Max(variance, 0))
		if std < 1e-6 {
			std = 1
		}
		p.tgt[plat] = targetStats{Mean: mean, Std: std}
	}
}

// normalizeSamples clones and standardizes sample features with the
// predictor's normalizer.
func (p *Predictor) normalizeSamples(samples []Sample) []Sample {
	out := make([]Sample, len(samples))
	for i, s := range samples {
		gf := s.GF.Clone()
		p.norm.Apply(gf)
		out[i] = Sample{GF: gf, LatencyMS: s.LatencyMS, Platform: s.Platform}
	}
	return out
}

// Fit trains the predictor from scratch on samples, fitting the feature
// normalizer and per-platform target statistics first. Works for both
// single-platform and multi-platform datasets (Algorithm 1 covers both).
func (p *Predictor) Fit(samples []Sample) error {
	if len(samples) == 0 {
		return fmt.Errorf("core: empty training set")
	}
	gfs := make([]*feats.GraphFeatures, len(samples))
	for i, s := range samples {
		gfs[i] = s.GF
	}
	// Bump on entry (weights are about to change under concurrent readers)
	// and again on exit (readers that memoized mid-training must not match
	// the final weights either).
	p.bumpGeneration()
	defer p.bumpGeneration()
	p.norm = feats.FitNormalizer(gfs)
	p.fitTargets(samples)
	for _, s := range samples {
		p.head(s.Platform) // materialize heads up front
	}
	return p.train(p.normalizeSamples(samples), p.cfg.Epochs)
}

// FineTune continues training on new samples without refitting the feature
// normalizer (the paper's transfer protocol: pre-trained α and β are loaded
// and fine-tuned on the new sample set). Target statistics are added for
// platforms not yet seen. Optimizer state is reset, as a fresh fine-tuning
// run would do.
func (p *Predictor) FineTune(samples []Sample, epochs int) error {
	if p.norm == nil {
		return fmt.Errorf("core: FineTune requires a fitted predictor")
	}
	p.bumpGeneration()
	defer p.bumpGeneration()
	p.fitTargets(samples)
	for _, s := range samples {
		p.head(s.Platform)
	}
	p.opt.Reset()
	return p.train(p.normalizeSamples(samples), epochs)
}

// gradSample computes one sample's loss gradient into gb (the train.Hooks
// Grad contract): forward through the shared backbone and the sample's
// platform head, backward through both with scratch-backed intermediates.
// Returns the sample's squared error in normalized target space.
func (p *Predictor) gradSample(samples []Sample, si int, inv float64, gb *tensor.GradBuf, rng *rand.Rand, sc *tensor.Scratch) float64 {
	s := samples[si]
	c := p.embed(s.GF, sc)
	pred, hc := p.heads[s.Platform].ForwardScratch(c.headIn, true, rng, sc)
	target := p.encodeTarget(s.LatencyMS, s.Platform)
	diff := pred.At(0, 0) - target
	loss := diff * diff
	if p.cfg.RelativeLoss && !p.cfg.LogTarget {
		// ((ŷ-y)/y)² in raw space: scale the normalized-space
		// gradient by (σ/y)².
		w := p.tgt[s.Platform].Std / math.Max(s.LatencyMS, 1e-9)
		diff *= w * w
	}
	dPred := sc.Get(1, 1)
	dPred.Set(0, 0, 2*diff*inv)
	dIn := p.heads[s.Platform].BackwardSink(hc, dPred, gb, sc)
	p.backwardEmbed(c, dIn, gb, sc)
	sc.Reset()
	return loss
}

// train runs mini-batch SGD per Algorithm 1 through the shared train.Trainer:
// each sample's loss updates the shared encoder and its platform's head;
// batches average gradients, computed across Config.Workers goroutines with
// bit-identical results for any worker count. With EarlyStop, 10% of the
// samples are held out for per-epoch validation and the best-epoch weights
// are restored at the end.
func (p *Predictor) train(samples []Sample, epochs int) error {
	var val []Sample
	if p.cfg.EarlyStop && len(samples) >= 50 {
		// Deterministic split: every 10th sample (post-normalization order
		// is caller-stable) validates.
		var tr []Sample
		for i, s := range samples {
			if i%10 == 9 {
				val = append(val, s)
			} else {
				tr = append(tr, s)
			}
		}
		samples = tr
	}
	tcfg := train.Config{
		Epochs: epochs, BatchSize: p.cfg.BatchSize,
		Workers: p.cfg.Workers, Schedule: train.StepDecay,
	}
	workers := tcfg.WorkerCount()
	scratch := make([]*tensor.Scratch, workers)
	for i := range scratch {
		scratch[i] = tensor.NewScratch()
	}
	// The backbone participates in every step; head params join per batch.
	// Both slices are hoisted out of the per-batch path and reused.
	encParams := []*tensor.Param{}
	if p.enc != nil {
		encParams = p.enc.Params()
	}
	stepBuf := make([]*tensor.Param, 0, len(p.allParams()))
	plats := make([]string, 0, len(p.heads))

	tr := &train.Trainer{
		Cfg: tcfg,
		Opt: p.opt,
		Hooks: train.Hooks{
			Grad: func(worker, si int, inv float64, gb *tensor.GradBuf, rng *rand.Rand) float64 {
				return p.gradSample(samples, si, inv, gb, rng, scratch[worker])
			},
			BatchParams: func(batch []int) []*tensor.Param {
				// Backbone plus every head touched by this batch. Batches are
				// small (≈16), so a linear scan beats a map allocation.
				stepBuf = append(stepBuf[:0], encParams...)
				plats = plats[:0]
				for _, si := range batch {
					plat := samples[si].Platform
					seen := false
					for _, q := range plats {
						if q == plat {
							seen = true
							break
						}
					}
					if !seen {
						plats = append(plats, plat)
						stepBuf = append(stepBuf, p.heads[plat].Params()...)
					}
				}
				return stepBuf
			},
			Epoch: p.epochHook,
		},
	}
	if len(val) > 0 {
		tr.Hooks.ValLoss = func() float64 { return p.valLoss(val, workers, scratch) }
		tr.Hooks.Snapshot = p.snapshotParams
		tr.Hooks.Restore = p.restoreParams
	}
	return tr.Run(len(samples), p.rng)
}

// valLoss computes the mean squared error on already-normalized samples,
// fanning the forward passes across workers (squared errors are summed in
// index order, so the result does not depend on the worker count).
func (p *Predictor) valLoss(val []Sample, workers int, scratch []*tensor.Scratch) float64 {
	errs := make([]float64, len(val))
	train.ParallelFor(workers, len(val), func(w, i int) {
		s := val[i]
		sc := scratch[w]
		c := p.embed(s.GF, sc)
		pred, _ := p.heads[s.Platform].ForwardScratch(c.headIn, false, nil, sc)
		d := pred.At(0, 0) - p.encodeTarget(s.LatencyMS, s.Platform)
		errs[i] = d * d
		sc.Reset()
	})
	var sum float64
	for _, e := range errs {
		sum += e
	}
	return sum / float64(len(val))
}

// snapshotParams copies every parameter value into a flat buffer (reusing
// buf when it fits).
func (p *Predictor) snapshotParams(buf []float64) []float64 {
	params := p.allParams()
	var total int
	for _, pr := range params {
		total += len(pr.Value.Data)
	}
	if cap(buf) < total {
		buf = make([]float64, total)
	}
	buf = buf[:total]
	off := 0
	for _, pr := range params {
		copy(buf[off:], pr.Value.Data)
		off += len(pr.Value.Data)
	}
	return buf
}

// restoreParams writes a snapshot back into the parameters.
func (p *Predictor) restoreParams(buf []float64) {
	off := 0
	for _, pr := range p.allParams() {
		copy(pr.Value.Data, buf[off:off+len(pr.Value.Data)])
		off += len(pr.Value.Data)
	}
}

// backwardEmbed routes the head-input gradient back through pooling and the
// encoder, with gradients routed to gb (nil → Param.Grad) and intermediates
// drawn from sc (nil allocates); the static-feature slice of the gradient
// ends at the inputs.
func (p *Predictor) backwardEmbed(c *embedCaches, dIn *tensor.Matrix, gb *tensor.GradBuf, sc *tensor.Scratch) {
	if c.pooled == nil {
		return // static-only model: nothing upstream to update
	}
	poolDim := c.pooled.Cols
	dPool := sc.Get(1, poolDim)
	copy(dPool.Row(0), dIn.Row(0)[:poolDim])
	if p.cfg.MeanPool && c.gf.X.Rows > 0 {
		dPool.Scale(1 / float64(c.gf.X.Rows))
	}
	if p.cfg.UseGNN && p.enc != nil {
		dH := gnn.SumPoolBackwardScratch(dPool, c.gf.X.Rows, sc)
		p.enc.BackwardSink(c.encC, dH, gb, sc)
	}
}
