package core

import (
	"math"
	"runtime"
	"testing"

	"nnlqp/internal/feats"
	"nnlqp/internal/hwsim"
	"nnlqp/internal/models"
	"nnlqp/internal/tensor"
)

// fitAt trains a fresh predictor on samples with the given worker count and
// returns its flattened weights.
func fitAt(t *testing.T, cfg Config, samples []Sample, workers int) []float64 {
	t.Helper()
	cfg.Workers = workers
	p := New(cfg)
	if err := p.Fit(samples); err != nil {
		t.Fatal(err)
	}
	return p.snapshotParams(nil)
}

// TestTrainBitIdenticalAcrossWorkers is the PR's central determinism claim:
// the same seed trains the full NNLP model to bit-identical weights whether
// batches run on 1, 4 or GOMAXPROCS workers.
func TestTrainBitIdenticalAcrossWorkers(t *testing.T) {
	cfg := quickConfig()
	cfg.Epochs = 6
	samples := buildSamples(t, []string{models.FamilySqueezeNet}, 60, hwsim.DatasetPlatform, 1)

	ref := fitAt(t, cfg, samples, 1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got := fitAt(t, cfg, samples, workers)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d params, want %d", workers, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: weight %d differs: %v != %v", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestConcurrentBatchWorkersRace exercises the concurrent training and read
// paths; run under -race (see the Makefile check target) it proves the
// workers share no unsynchronized state.
func TestConcurrentBatchWorkersRace(t *testing.T) {
	cfg := quickConfig()
	cfg.Epochs = 3
	cfg.Workers = 4
	samples := buildSamples(t, []string{models.FamilySqueezeNet}, 24, hwsim.DatasetPlatform, 2)
	p := New(cfg)
	if err := p.Fit(samples); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Evaluate(samples); err != nil {
		t.Fatal(err)
	}
	if _, err := p.PredictAll(samples[0].GF); err != nil {
		t.Fatal(err)
	}
}

// fdSetup prepares a predictor with materialized heads/normalizer and the
// normalized samples, without training (weights stay at init).
func fdSetup(t *testing.T, cfg Config, samples []Sample) (*Predictor, []Sample) {
	t.Helper()
	p := New(cfg)
	gfs := make([]*feats.GraphFeatures, len(samples))
	for i, s := range samples {
		gfs[i] = s.GF
	}
	p.norm = feats.FitNormalizer(gfs)
	p.fitTargets(samples)
	for _, s := range samples {
		p.head(s.Platform)
	}
	return p, p.normalizeSamples(samples)
}

// sinkLoss evaluates the scalar objective gradSample differentiates: the
// (possibly relative-weighted) squared error in normalized target space,
// scaled by inv.
func sinkLoss(p *Predictor, s Sample, inv float64) float64 {
	c := p.embed(s.GF, nil)
	pred, _ := p.heads[s.Platform].ForwardScratch(c.headIn, true, nil, nil) // Dropout=0: rng unused
	diff := pred.At(0, 0) - p.encodeTarget(s.LatencyMS, s.Platform)
	w := 1.0
	if p.cfg.RelativeLoss && !p.cfg.LogTarget {
		r := p.tgt[s.Platform].Std / math.Max(s.LatencyMS, 1e-9)
		w = r * r
	}
	return inv * w * diff * diff
}

// TestGradSampleFiniteDifference re-checks the gradients flowing through the
// sink path (embed → head → backwardEmbed, all scratch-backed) against
// central finite differences, for both the plain and the RelativeLoss
// objectives.
func TestGradSampleFiniteDifference(t *testing.T) {
	base := quickConfig()
	base.Hidden = 8
	base.Depth = 2
	base.HeadHidden = 8
	base.Dropout = 0 // deterministic forward for finite differences

	rel := base
	rel.LogTarget = false
	rel.RelativeLoss = true

	for name, cfg := range map[string]Config{"plain": base, "relative": rel} {
		t.Run(name, func(t *testing.T) {
			samples := buildSamples(t, []string{models.FamilySqueezeNet}, 3, hwsim.DatasetPlatform, 3)
			p, ns := fdSetup(t, cfg, samples)
			inv := 1.0 / float64(len(ns))

			// Accumulate every sample through its own sink slot, then reduce
			// — exactly what Trainer does per batch.
			sink := tensor.NewGradSink(len(ns))
			sc := tensor.NewScratch()
			for i := range ns {
				p.gradSample(ns, i, inv, sink.Slot(i), nil, sc)
			}
			params := p.allParams()
			for _, pr := range params {
				pr.ZeroGrad()
			}
			sink.Reduce()

			total := func() float64 {
				var sum float64
				for _, s := range ns {
					sum += sinkLoss(p, s, inv)
				}
				return sum
			}
			const eps = 1e-6
			checked := 0
			for _, pr := range params {
				for _, j := range []int{0, len(pr.Value.Data) / 2, len(pr.Value.Data) - 1} {
					orig := pr.Value.Data[j]
					pr.Value.Data[j] = orig + eps
					up := total()
					pr.Value.Data[j] = orig - eps
					down := total()
					pr.Value.Data[j] = orig
					fd := (up - down) / (2 * eps)
					got := pr.Grad.Data[j]
					if math.Abs(fd-got) > 1e-5*(1+math.Abs(fd)) {
						t.Fatalf("%s[%d]: sink grad %v, finite difference %v", pr.Name, j, got, fd)
					}
					checked++
				}
			}
			if checked == 0 {
				t.Fatal("no gradient entries checked")
			}
		})
	}
}
