package core

import (
	"math/rand"
	"testing"

	"nnlqp/internal/feats"
	"nnlqp/internal/hwsim"
	"nnlqp/internal/models"
	"nnlqp/internal/onnx"
)

// buildGraphs generates n deterministic variants cycling through families.
func buildGraphs(t testing.TB, families []string, n int, seed int64) []*onnx.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]*onnx.Graph, 0, n)
	for i := 0; i < n; i++ {
		g, err := models.Variant(families[i%len(families)], rng, 1)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, g)
	}
	return out
}

// TestPredictBatchBitIdenticalToPredict is the property test for the packed
// batch path: for every batch width, PredictBatch must reproduce N
// independent Predict calls bit for bit. The packing is block-diagonal, every
// kernel downstream is row-independent, and the blocked matmul's tiling
// depends only on the column counts — so batching may never change an
// answer, only the throughput.
func TestPredictBatchBitIdenticalToPredict(t *testing.T) {
	fams := []string{models.FamilySqueezeNet, models.FamilyResNet}
	train := buildSamples(t, fams, 12, hwsim.DatasetPlatform, 30)
	cfg := quickConfig()
	cfg.Epochs = 3
	p := New(cfg)
	if err := p.Fit(train); err != nil {
		t.Fatal(err)
	}

	graphs := buildGraphs(t, fams, 32, 31)
	want := make([]float64, len(graphs))
	for i, g := range graphs {
		v, err := p.Predict(g, hwsim.DatasetPlatform)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}

	for _, width := range []int{1, 2, 7, 32} {
		got, err := p.PredictBatch(graphs[:width], hwsim.DatasetPlatform)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != width {
			t.Fatalf("width %d: got %d results", width, len(got))
		}
		for i, v := range got {
			if v != want[i] {
				t.Fatalf("width %d graph %d: batched %v != solo %v (must be bit-identical)", width, i, v, want[i])
			}
		}
	}

	// A second pass over the warmed pool must still be bit-identical (the
	// capacity pool re-slices buffers across differing batch shapes).
	got, err := p.PredictBatch(graphs[:7], hwsim.DatasetPlatform)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != want[i] {
			t.Fatalf("warm pass graph %d: %v != %v", i, v, want[i])
		}
	}
}

// TestPredictBatchAblationConfigs runs the bit-identity property under every
// ablation switch, covering each branch of the packed forward (static-only,
// no-GNN pooling, sum vs mean pooling, final-norm on).
func TestPredictBatchAblationConfigs(t *testing.T) {
	fams := []string{models.FamilySqueezeNet}
	train := buildSamples(t, fams, 8, hwsim.DatasetPlatform, 32)
	graphs := buildGraphs(t, fams, 7, 33)

	cases := map[string]func(*Config){
		"full":        func(c *Config) {},
		"woNodeFeats": func(c *Config) { c.UseNodeFeats = false },
		"woGNN":       func(c *Config) { c.UseGNN = false },
		"woStatic":    func(c *Config) { c.UseStatic = false },
		"sumPoolNorm": func(c *Config) { c.MeanPool = false; c.NoFinalNorm = false },
	}
	for name, mod := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := quickConfig()
			cfg.Epochs = 2
			mod(&cfg)
			p := New(cfg)
			if err := p.Fit(train); err != nil {
				t.Fatal(err)
			}
			got, err := p.PredictBatch(graphs, hwsim.DatasetPlatform)
			if err != nil {
				t.Fatal(err)
			}
			for i, g := range graphs {
				want, err := p.Predict(g, hwsim.DatasetPlatform)
				if err != nil {
					t.Fatal(err)
				}
				if got[i] != want {
					t.Fatalf("graph %d: batched %v != solo %v", i, got[i], want)
				}
			}
		})
	}
}

// TestPredictSamplesIntoMatchesPredictSample covers the pre-extracted
// feature entry point used by the server batcher, including dst reuse: a
// width-5 call must reproduce five width-1 calls bit for bit.
func TestPredictSamplesIntoMatchesPredictSample(t *testing.T) {
	train := buildSamples(t, []string{models.FamilySqueezeNet}, 10, hwsim.DatasetPlatform, 34)
	cfg := quickConfig()
	cfg.Epochs = 2
	p := New(cfg)
	if err := p.Fit(train); err != nil {
		t.Fatal(err)
	}
	gfs := make([]*feats.GraphFeatures, 0, 5)
	for _, s := range train[:5] {
		gfs = append(gfs, s.GF)
	}
	dst := []float64{-1} // pre-existing content must be preserved (append semantics)
	dst, err := p.PredictSamplesInto(dst, gfs, hwsim.DatasetPlatform)
	if err != nil {
		t.Fatal(err)
	}
	if len(dst) != 1+len(gfs) || dst[0] != -1 {
		t.Fatalf("append semantics broken: len %d, dst[0]=%v", len(dst), dst[0])
	}
	for i := range gfs {
		solo, err := p.PredictSamplesInto(nil, gfs[i:i+1], hwsim.DatasetPlatform)
		if err != nil {
			t.Fatal(err)
		}
		if want := solo[0]; dst[1+i] != want {
			t.Fatalf("sample %d: batched %v != solo %v", i, dst[1+i], want)
		}
	}
	// Empty batch: dst returned unchanged, no error.
	out, err := p.PredictSamplesInto(dst, nil, hwsim.DatasetPlatform)
	if err != nil || len(out) != len(dst) {
		t.Fatalf("empty batch: out len %d err %v", len(out), err)
	}
}

// TestPredictBatchErrors pins the validation paths.
func TestPredictBatchErrors(t *testing.T) {
	graphs := buildGraphs(t, []string{models.FamilySqueezeNet}, 2, 35)
	cfg := quickConfig()
	cfg.Epochs = 1
	if _, err := New(cfg).PredictBatch(graphs, hwsim.DatasetPlatform); err == nil {
		t.Fatal("want unfitted error")
	}
	train := buildSamples(t, []string{models.FamilySqueezeNet}, 6, hwsim.DatasetPlatform, 36)
	p := New(cfg)
	if err := p.Fit(train); err != nil {
		t.Fatal(err)
	}
	if _, err := p.PredictBatch(graphs, "gpu-P4-trt7.1-int8"); err == nil {
		t.Fatal("want no-head error for untrained platform")
	}
	out, err := p.PredictBatch(nil, hwsim.DatasetPlatform)
	if err != nil || out != nil {
		t.Fatalf("empty batch: out %v err %v", out, err)
	}
}

// TestPredictBatchSteadyStateAllocs pins the allocation-free batched hot
// path: with warmed pools and a reused dst, an 8-wide PredictSamplesInto
// must not allocate — the acceptance criterion for the packed serving path.
func TestPredictBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool intentionally bypasses its cache under -race, so alloc counts are meaningless")
	}
	train := buildSamples(t, []string{models.FamilySqueezeNet}, 10, hwsim.DatasetPlatform, 37)
	cfg := quickConfig()
	cfg.Epochs = 2
	p := New(cfg)
	if err := p.Fit(train); err != nil {
		t.Fatal(err)
	}
	gfs := extractAll(t, p, buildGraphs(t, []string{models.FamilySqueezeNet}, 8, 38))
	dst := make([]float64, 0, len(gfs))
	// Warm: packing buffers, every scratch shape.
	for i := 0; i < 3; i++ {
		var err error
		dst, err = p.PredictSamplesInto(dst[:0], gfs, hwsim.DatasetPlatform)
		if err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		var err error
		dst, err = p.PredictSamplesInto(dst[:0], gfs, hwsim.DatasetPlatform)
		if err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("PredictSamplesInto allocates %.1f objects/op in steady state, want 0", avg)
	}
}

// BenchmarkPredictBatch measures packed-batch throughput at increasing batch
// widths (run with -benchmem). The graphs/s metric is the headline: it must
// increase with width as the blocked matmul amortizes each weight panel over
// more rows.
func BenchmarkPredictBatch(b *testing.B) {
	train := buildSamples(b, []string{models.FamilyAlexNet}, 10, hwsim.DatasetPlatform, 39)
	cfg := quickConfig()
	cfg.Epochs = 2
	p := New(cfg)
	if err := p.Fit(train); err != nil {
		b.Fatal(err)
	}
	gfs := extractAll(b, p, buildGraphs(b, []string{models.FamilyAlexNet}, 32, 40))
	for _, width := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(benchName(width), func(b *testing.B) {
			batch := gfs[:width]
			dst := make([]float64, 0, width)
			var err error
			for i := 0; i < 3; i++ {
				if dst, err = p.PredictSamplesInto(dst[:0], batch, hwsim.DatasetPlatform); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if dst, err = p.PredictSamplesInto(dst[:0], batch, hwsim.DatasetPlatform); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(width)*float64(b.N)/secs, "graphs/s")
			}
		})
	}
}

// extractAll extracts every graph's features under p's configuration.
func extractAll(t testing.TB, p *Predictor, gs []*onnx.Graph) []*feats.GraphFeatures {
	t.Helper()
	gfs := make([]*feats.GraphFeatures, len(gs))
	for i, g := range gs {
		gf, err := p.Extract(g)
		if err != nil {
			t.Fatal(err)
		}
		gfs[i] = gf
	}
	return gfs
}

// benchName formats a width sub-benchmark name with stable lexical ordering.
func benchName(width int) string {
	if width < 10 {
		return "width=0" + string(rune('0'+width))
	}
	return "width=" + string(rune('0'+width/10)) + string(rune('0'+width%10))
}
