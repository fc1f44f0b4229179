package nnlqp

// One benchmark per table and figure of the paper's evaluation, each
// regenerating the corresponding experiment through the harness in
// internal/experiments (run `go test -bench Table3 -benchtime 1x` etc.).
// Benchmarks run at a reduced scale so the full suite stays tractable;
// paper-scale regeneration is `nnlqp-experiments -scale paper`. The
// qualitative results recorded in EXPERIMENTS.md come from
// `nnlqp-experiments -scale quick` runs of the same code paths.
//
// Micro-benchmarks for the load-bearing substrates (graph hashing, database
// lookup, simulator execution, GNN inference, matrix kernels) follow.

import (
	"fmt"
	"math/rand"
	"testing"

	"nnlqp/internal/core"
	"nnlqp/internal/db"
	"nnlqp/internal/experiments"
	"nnlqp/internal/feats"
	"nnlqp/internal/graphhash"
	"nnlqp/internal/hwsim"
	"nnlqp/internal/models"
	"nnlqp/internal/tensor"
)

// benchScale sizes the per-table benchmarks: large enough to exercise the
// real code paths, small enough that one iteration is seconds-to-a-minute.
func benchScale() experiments.Options {
	o := experiments.Quick()
	o.PerFamily = 16
	o.TrainPerFamily = 12
	o.TestPerFamily = 4
	o.Epochs = 8
	o.Hidden = 24
	o.Depth = 2
	o.KernelCap = 80
	o.NASSamples = 60
	return o
}

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	o := benchScale()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(name, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2KernelAdditivity(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkTable2QueryEfficiency(b *testing.B)     { benchExperiment(b, "table2") }
func BenchmarkTable3Comparison(b *testing.B)          { benchExperiment(b, "table3") }
func BenchmarkTable4Ablation(b *testing.B)            { benchExperiment(b, "table4") }
func BenchmarkTable5KernelPrediction(b *testing.B)    { benchExperiment(b, "table5") }
func BenchmarkTable6MultiPlatform(b *testing.B)       { benchExperiment(b, "table6") }
func BenchmarkFigure6TransferStructures(b *testing.B) { benchExperiment(b, "fig6") }
func BenchmarkFigure7TransferPlatforms(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFigure8TaskTransfer(b *testing.B)       { benchExperiment(b, "fig8") }
func BenchmarkFigure9NAS(b *testing.B)                { benchExperiment(b, "fig9") }
func BenchmarkTable7NASCost(b *testing.B)             { benchExperiment(b, "table7") }
func BenchmarkTable8KernelStats(b *testing.B)         { benchExperiment(b, "table8") }
func BenchmarkFigure10FlopsMacTransfer(b *testing.B)  { benchExperiment(b, "fig10") }

// --- substrate micro-benchmarks ---

func benchGraph() *Model {
	m, err := Canonical("ResNet", 1)
	if err != nil {
		panic(err)
	}
	return m
}

// BenchmarkGraphHash measures the Eq. 1-2 structural hash: the cost every
// database query pays before lookup.
func BenchmarkGraphHash(b *testing.B) {
	m := benchGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := graphhash.GraphKey(m.g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorExecute measures one full simulated inference (fusion +
// pricing + scheduling).
func BenchmarkSimulatorExecute(b *testing.B) {
	m := benchGraph()
	p, _ := hwsim.PlatformByName(hwsim.DatasetPlatform)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Execute(m.g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatabaseLookup measures a hash-keyed cache hit against a store
// holding a few thousand models.
func BenchmarkDatabaseLookup(b *testing.B) {
	store, err := db.OpenStore("")
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	rng := rand.New(rand.NewSource(1))
	var keys []graphhash.Key
	for i := 0; i < 2000; i++ {
		g, err := models.Variant(models.FamilySqueezeNet, rng, 1)
		if err != nil {
			b.Fatal(err)
		}
		rec, err := store.InsertModel(g)
		if err != nil {
			b.Fatal(err)
		}
		keys = append(keys, rec.Hash)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := store.FindModelByHash(keys[i%len(keys)]); err != nil || !ok {
			b.Fatal("lookup failed")
		}
	}
}

// BenchmarkFeatureExtraction measures Eq. 3/5 feature extraction.
func BenchmarkFeatureExtraction(b *testing.B) {
	m := benchGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := feats.Extract(m.g, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictorInference measures one end-to-end NNLP prediction
// (features + GNN forward + head).
func BenchmarkPredictorInference(b *testing.B) {
	p, _ := hwsim.PlatformByName(hwsim.DatasetPlatform)
	cfg := core.DefaultConfig()
	cfg.Hidden, cfg.Depth, cfg.HeadHidden, cfg.Epochs = 32, 3, 32, 2
	pred := core.New(cfg)
	rng := rand.New(rand.NewSource(2))
	var train []core.Sample
	for i := 0; i < 24; i++ {
		g, _ := models.Variant(models.FamilyResNet, rng, 1)
		ms, err := p.TrueLatencyMS(g)
		if err != nil {
			b.Fatal(err)
		}
		s, _ := core.NewSample(g, ms, p.Name)
		train = append(train, s)
	}
	if err := pred.Fit(train); err != nil {
		b.Fatal(err)
	}
	m := benchGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pred.Predict(m.g, p.Name); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainThroughput measures training throughput (samples/sec)
// through the shared Trainer at 1 and 4 gradient workers. The two runs
// produce bit-identical weights (see TestTrainBitIdenticalAcrossWorkers);
// the speedup materializes on multi-core runners.
func BenchmarkTrainThroughput(b *testing.B) {
	p, _ := hwsim.PlatformByName(hwsim.DatasetPlatform)
	rng := rand.New(rand.NewSource(7))
	var samples []core.Sample
	for i := 0; i < 48; i++ {
		g, _ := models.Variant(models.FamilySqueezeNet, rng, 1)
		ms, err := p.TrueLatencyMS(g)
		if err != nil {
			b.Fatal(err)
		}
		s, _ := core.NewSample(g, ms, p.Name)
		samples = append(samples, s)
	}
	const epochs = 6
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Hidden, cfg.Depth, cfg.HeadHidden = 32, 3, 32
			cfg.Epochs = epochs
			cfg.Workers = workers
			cfg.EarlyStop = false
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pred := core.New(cfg)
				if err := pred.Fit(samples); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*epochs*len(samples))/b.Elapsed().Seconds(), "samples/sec")
		})
	}
}

// BenchmarkMatMul64 measures the GNN's core kernel at a typical layer size,
// through MatMulInto, the entry point the training forward calls.
func BenchmarkMatMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := tensor.NewMatrix(128, 64)
	w := tensor.NewMatrix(64, 64)
	out := tensor.NewMatrix(128, 64)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(out, a, w)
	}
}

// BenchmarkKernelize measures fusion-rule splitting, the per-query cost of
// the kernel-level baselines.
func BenchmarkKernelize(b *testing.B) {
	m := benchGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hwsim.Kernelize(m.g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryCacheHit measures an end-to-end cached latency query
// (hash + database lookup) through the public API.
func BenchmarkQueryCacheHit(b *testing.B) {
	client, err := New(Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	m := benchGraph()
	params := Params{Model: m, PlatformName: hwsim.DatasetPlatform}
	if _, err := client.Query(params); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Query(params); err != nil {
			b.Fatal(err)
		}
	}
}

// --- design-decision ablation benches (DESIGN.md §5) ---

// BenchmarkAblationLogVsLinearTarget compares training with log-latency vs
// raw-latency regression targets on a small single-family task, reporting
// resulting MAPE as a custom metric.
func BenchmarkAblationLogVsLinearTarget(b *testing.B) {
	p, _ := hwsim.PlatformByName(hwsim.DatasetPlatform)
	rng := rand.New(rand.NewSource(4))
	var train, test []core.Sample
	for i := 0; i < 60; i++ {
		g, _ := models.Variant(models.FamilySqueezeNet, rng, 1)
		ms, err := p.TrueLatencyMS(g)
		if err != nil {
			b.Fatal(err)
		}
		s, _ := core.NewSample(g, ms, p.Name)
		if i < 45 {
			train = append(train, s)
		} else {
			test = append(test, s)
		}
	}
	run := func(logTarget bool) float64 {
		cfg := core.DefaultConfig()
		cfg.Hidden, cfg.Depth, cfg.HeadHidden, cfg.Epochs = 24, 2, 24, 10
		cfg.LogTarget = logTarget
		pr := core.New(cfg)
		if err := pr.Fit(train); err != nil {
			b.Fatal(err)
		}
		m, err := pr.Evaluate(test)
		if err != nil {
			b.Fatal(err)
		}
		return m.MAPE
	}
	var logM, linM float64
	for i := 0; i < b.N; i++ {
		logM = run(true)
		linM = run(false)
	}
	b.ReportMetric(logM, "log-MAPE%")
	b.ReportMetric(linM, "linear-MAPE%")
}

// BenchmarkAblationSumVsMeanPool compares the Eq. 5 sum readout against the
// mean readout this reproduction defaults to.
func BenchmarkAblationSumVsMeanPool(b *testing.B) {
	p, _ := hwsim.PlatformByName(hwsim.DatasetPlatform)
	rng := rand.New(rand.NewSource(5))
	var train, test []core.Sample
	for i := 0; i < 60; i++ {
		fam := models.FamilySqueezeNet
		if i%2 == 0 {
			fam = models.FamilyResNet
		}
		g, _ := models.Variant(fam, rng, 1)
		ms, err := p.TrueLatencyMS(g)
		if err != nil {
			b.Fatal(err)
		}
		s, _ := core.NewSample(g, ms, p.Name)
		if i < 44 {
			train = append(train, s)
		} else {
			test = append(test, s)
		}
	}
	run := func(mean bool) float64 {
		cfg := core.DefaultConfig()
		cfg.Hidden, cfg.Depth, cfg.HeadHidden, cfg.Epochs = 24, 2, 24, 10
		cfg.MeanPool = mean
		pr := core.New(cfg)
		if err := pr.Fit(train); err != nil {
			b.Fatal(err)
		}
		m, err := pr.Evaluate(test)
		if err != nil {
			b.Fatal(err)
		}
		return m.MAPE
	}
	var meanM, sumM float64
	for i := 0; i < b.N; i++ {
		meanM = run(true)
		sumM = run(false)
	}
	b.ReportMetric(meanM, "mean-MAPE%")
	b.ReportMetric(sumM, "sum-MAPE%")
}

// BenchmarkAblationBTreeVsMapIndex compares the B-tree unique index against
// Go's builtin map for hash-keyed lookups at database scale.
func BenchmarkAblationBTreeVsMapIndex(b *testing.B) {
	const n = 100000
	bt := db.NewBTree()
	mp := make(map[uint64]uint64, n)
	rng := rand.New(rand.NewSource(6))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
		bt.Set(keys[i], uint64(i))
		mp[keys[i]] = uint64(i)
	}
	b.Run("btree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := bt.Get(keys[i%n]); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := mp[keys[i%n]]; !ok {
				b.Fatal("miss")
			}
		}
	})
}
