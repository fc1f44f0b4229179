package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"nnlqp/internal/hwsim"
	"nnlqp/internal/models"
)

// buildSamples measures `n` variants of each given family on a platform and
// returns core samples. Uses small CIFAR-scale NASBench and regular
// families alike; deterministic under seed.
func buildSamples(t testing.TB, families []string, n int, platform string, seed int64) []Sample {
	t.Helper()
	p, err := hwsim.PlatformByName(platform)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var out []Sample
	for _, fam := range families {
		for i := 0; i < n; i++ {
			g, err := models.Variant(fam, rng, 1)
			if err != nil {
				t.Fatal(err)
			}
			ms, err := p.TrueLatencyMS(g)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSample(g, ms, platform)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, s)
		}
	}
	return out
}

// quickConfig is a small-but-capable configuration for fast tests.
func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Hidden = 24
	cfg.Depth = 2
	cfg.HeadHidden = 24
	cfg.Epochs = 25
	cfg.LR = 2e-3
	return cfg
}

func TestPredictorLearnsSingleFamily(t *testing.T) {
	fams := []string{models.FamilySqueezeNet}
	train := buildSamples(t, fams, 60, hwsim.DatasetPlatform, 1)
	test := buildSamples(t, fams, 20, hwsim.DatasetPlatform, 2)

	p := New(quickConfig())
	if err := p.Fit(train); err != nil {
		t.Fatal(err)
	}
	m, err := p.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("in-family: %s", m)
	if m.MAPE > 20 {
		t.Fatalf("MAPE %.2f%% too high for in-family prediction", m.MAPE)
	}
	if m.Acc10 < 40 {
		t.Fatalf("Acc(10%%) %.2f%% too low", m.Acc10)
	}
}

func TestPredictorGeneralizesAcrossFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	trainFams := []string{models.FamilySqueezeNet, models.FamilyResNet, models.FamilyVGG}
	train := buildSamples(t, trainFams, 40, hwsim.DatasetPlatform, 3)
	// Unseen family at test time (the Table 3 protocol).
	test := buildSamples(t, []string{models.FamilyAlexNet}, 20, hwsim.DatasetPlatform, 4)

	p := New(quickConfig())
	if err := p.Fit(train); err != nil {
		t.Fatal(err)
	}
	m, err := p.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("unseen family: %s", m)
	// Unseen-structure errors are larger, but predictions must stay in the
	// right regime.
	if m.MAPE > 60 {
		t.Fatalf("unseen-family MAPE %.2f%% way off", m.MAPE)
	}
}

func TestPredictorErrors(t *testing.T) {
	p := New(quickConfig())
	if err := p.Fit(nil); err == nil {
		t.Fatal("want empty-training-set error")
	}
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	if _, err := p.Predict(g, hwsim.DatasetPlatform); err == nil {
		t.Fatal("want unfitted error")
	}
	train := buildSamples(t, []string{models.FamilySqueezeNet}, 6, hwsim.DatasetPlatform, 5)
	cfg := quickConfig()
	cfg.Epochs = 1
	p2 := New(cfg)
	if err := p2.Fit(train); err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Predict(g, "gpu-P4-trt7.1-int8"); err == nil {
		t.Fatal("want no-head error for untrained platform")
	}
	if err := New(cfg).FineTune(train, 1); err == nil {
		t.Fatal("want unfitted FineTune error")
	}
}

func TestMultiPlatformSharedBackbone(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	platA, platB := "gpu-T4-trt7.1-fp32", "hi3559A-nnie11-int8"
	train := append(
		buildSamples(t, []string{models.FamilySqueezeNet}, 40, platA, 6),
		buildSamples(t, []string{models.FamilySqueezeNet}, 40, platB, 7)...,
	)
	p := New(quickConfig())
	if err := p.Fit(train); err != nil {
		t.Fatal(err)
	}
	if got := p.Platforms(); len(got) != 2 {
		t.Fatalf("platforms = %v", got)
	}
	for _, plat := range []string{platA, platB} {
		test := buildSamples(t, []string{models.FamilySqueezeNet}, 15, plat, 8)
		m, err := p.Evaluate(test)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %s", plat, m)
		if m.MAPE > 30 {
			t.Fatalf("%s MAPE %.2f%% too high for multi-head predictor", plat, m.MAPE)
		}
	}
}

func TestFineTuneImprovesUnseenPlatform(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	// Pretrain on one platform, fine-tune on another with few samples; the
	// fine-tuned model must beat the scratch model with the same few
	// samples (Fig. 7's claim).
	pre := buildSamples(t, []string{models.FamilySqueezeNet}, 60, "gpu-T4-trt7.1-fp32", 9)
	few := buildSamples(t, []string{models.FamilySqueezeNet}, 12, "gpu-P4-trt7.1-int8", 10)
	test := buildSamples(t, []string{models.FamilySqueezeNet}, 20, "gpu-P4-trt7.1-int8", 11)

	base := New(quickConfig())
	if err := base.Fit(pre); err != nil {
		t.Fatal(err)
	}
	tuned, err := base.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := tuned.FineTune(few, 30); err != nil {
		t.Fatal(err)
	}
	mTuned, err := tuned.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}

	scratch := New(quickConfig())
	if err := scratch.Fit(few); err != nil {
		t.Fatal(err)
	}
	mScratch, err := scratch.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("transfer: %s | scratch: %s", mTuned, mScratch)
	// At 12 fine-tuning samples both regimes are noisy; the qualitative
	// Fig. 6/7 claims are asserted at experiment scale. Here we only
	// require the transferred model to stay in the same quality regime.
	if mTuned.MAPE > mScratch.MAPE+15 && mTuned.MAPE > 25 {
		t.Fatalf("transfer (%.2f%%) collapsed versus scratch (%.2f%%)", mTuned.MAPE, mScratch.MAPE)
	}
}

func TestAblationConfigsTrainAndDegrade(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	train := buildSamples(t, []string{models.FamilySqueezeNet, models.FamilyResNet}, 30, hwsim.DatasetPlatform, 12)
	test := buildSamples(t, []string{models.FamilySqueezeNet, models.FamilyResNet}, 10, hwsim.DatasetPlatform, 13)

	run := func(mod func(*Config)) Metrics {
		cfg := quickConfig()
		mod(&cfg)
		p := New(cfg)
		if err := p.Fit(train); err != nil {
			t.Fatal(err)
		}
		m, err := p.Evaluate(test)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	full := run(func(c *Config) {})
	woNode := run(func(c *Config) { c.UseNodeFeats = false })
	woGNN := run(func(c *Config) { c.UseGNN = false })
	woStatic := run(func(c *Config) { c.UseStatic = false })
	t.Logf("full=%.2f woFv0=%.2f woGNN=%.2f woStatic=%.2f", full.MAPE, woNode.MAPE, woGNN.MAPE, woStatic.MAPE)
	// The full model should be the best of the four (Table 4's headline).
	for name, m := range map[string]Metrics{"wo/Fv0": woNode, "wo/gnn": woGNN, "wo/static": woStatic} {
		if m.MAPE+1e-9 < full.MAPE {
			t.Errorf("%s (%.2f%%) unexpectedly beats full NNLP (%.2f%%)", name, m.MAPE, full.MAPE)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	train := buildSamples(t, []string{models.FamilySqueezeNet}, 15, hwsim.DatasetPlatform, 14)
	cfg := quickConfig()
	cfg.Epochs = 4
	p := New(cfg)
	if err := p.Fit(train); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	a, err := p.Predict(g, hwsim.DatasetPlatform)
	if err != nil {
		t.Fatal(err)
	}
	b, err := q.Predict(g, hwsim.DatasetPlatform)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("loaded predictor disagrees: %f vs %f", a, b)
	}
	// Unfitted save fails.
	if err := New(cfg).Save(&bytes.Buffer{}); err == nil {
		t.Fatal("want unfitted-save error")
	}
	// Garbage load fails.
	if _, err := Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("want decode error")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	train := buildSamples(t, []string{models.FamilySqueezeNet}, 15, hwsim.DatasetPlatform, 15)
	cfg := quickConfig()
	cfg.Epochs = 3
	p := New(cfg)
	if err := p.Fit(train); err != nil {
		t.Fatal(err)
	}
	c, err := p.Clone()
	if err != nil {
		t.Fatal(err)
	}
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	before, _ := p.Predict(g, hwsim.DatasetPlatform)
	// Fine-tune the clone only.
	if err := c.FineTune(train[:5], 5); err != nil {
		t.Fatal(err)
	}
	after, _ := p.Predict(g, hwsim.DatasetPlatform)
	if before != after {
		t.Fatal("fine-tuning the clone mutated the original")
	}
}

func TestDeterministicTraining(t *testing.T) {
	train := buildSamples(t, []string{models.FamilySqueezeNet}, 12, hwsim.DatasetPlatform, 16)
	cfg := quickConfig()
	cfg.Epochs = 3
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	run := func() float64 {
		p := New(cfg)
		if err := p.Fit(train); err != nil {
			t.Fatal(err)
		}
		v, err := p.Predict(g, hwsim.DatasetPlatform)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if run() != run() {
		t.Fatal("training is not deterministic under a fixed seed")
	}
}

func TestMetricsFunctions(t *testing.T) {
	truth := []float64{10, 20, 100}
	pred := []float64{11, 18, 150}
	m := MAPE(truth, pred)
	want := (0.1 + 0.1 + 0.5) / 3 * 100
	if math.Abs(m-want) > 1e-9 {
		t.Fatalf("MAPE = %f, want %f", m, want)
	}
	acc := AccDelta(truth, pred, 0.10)
	if math.Abs(acc-2.0/3*100) > 1e-9 {
		t.Fatalf("Acc(10%%) = %f", acc)
	}
	if !math.IsNaN(MAPE(nil, nil)) || !math.IsNaN(AccDelta([]float64{1}, nil, 0.1)) {
		t.Fatal("degenerate inputs should yield NaN")
	}
}

func TestPredictAllSharesEmbedding(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	platA, platB := "gpu-T4-trt7.1-fp32", "gpu-P4-trt7.1-int8"
	train := append(
		buildSamples(t, []string{models.FamilySqueezeNet}, 25, platA, 20),
		buildSamples(t, []string{models.FamilySqueezeNet}, 25, platB, 21)...,
	)
	cfg := quickConfig()
	cfg.Epochs = 10
	p := New(cfg)
	if err := p.Fit(train); err != nil {
		t.Fatal(err)
	}
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	gf, err := p.Extract(g)
	if err != nil {
		t.Fatal(err)
	}
	all, err := p.PredictAll(gf)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("PredictAll covered %d platforms", len(all))
	}
	// Must agree exactly with per-platform Predict (same embedding path).
	for _, plat := range []string{platA, platB} {
		single, err := p.Predict(g, plat)
		if err != nil {
			t.Fatal(err)
		}
		if single != all[plat] {
			t.Fatalf("%s: PredictAll %.6f != Predict %.6f", plat, all[plat], single)
		}
		// ...and with the training composition (embed, then the head).
		if ref := trainingPredict(p, gf, plat); ref != all[plat] {
			t.Fatalf("%s: PredictAll %v != training embed+head %v", plat, all[plat], ref)
		}
	}
	// Unfitted predictor errors.
	if _, err := New(cfg).PredictAll(gf); err == nil {
		t.Fatal("want unfitted error")
	}
}

func TestRelativeLossAndRawTargetTrain(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	train := buildSamples(t, []string{models.FamilySqueezeNet}, 40, hwsim.DatasetPlatform, 22)
	test := buildSamples(t, []string{models.FamilySqueezeNet}, 12, hwsim.DatasetPlatform, 23)
	cfg := quickConfig()
	cfg.LogTarget = false
	cfg.RelativeLoss = true
	cfg.MeanPool = false
	p := New(cfg)
	if err := p.Fit(train); err != nil {
		t.Fatal(err)
	}
	m, err := p.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("raw+relative in-family: %s", m)
	if m.MAPE > 40 {
		t.Fatalf("relative-loss training failed to learn: %.2f%%", m.MAPE)
	}
}

func TestPredictionClampPreventsBlowup(t *testing.T) {
	// Train on tiny SqueezeNets, predict a gigantic VGG: the clamp bounds
	// the prediction to exp(mean + 4*std) of the training distribution.
	train := buildSamples(t, []string{models.FamilySqueezeNet}, 20, hwsim.DatasetPlatform, 24)
	cfg := quickConfig()
	cfg.Epochs = 5
	p := New(cfg)
	if err := p.Fit(train); err != nil {
		t.Fatal(err)
	}
	big := models.BuildVGG(models.BaseVGG(8)) // batch 8 VGG: far out of distribution
	v, err := p.Predict(big, hwsim.DatasetPlatform)
	if err != nil {
		t.Fatal(err)
	}
	var maxTrain float64
	for _, s := range train {
		if s.LatencyMS > maxTrain {
			maxTrain = s.LatencyMS
		}
	}
	if v > maxTrain*1000 {
		t.Fatalf("clamp failed: predicted %.1f ms with train max %.3f ms", v, maxTrain)
	}
	if v <= 0 {
		t.Fatal("prediction must stay positive")
	}
}
