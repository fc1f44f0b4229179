package models

import (
	"math/rand"
	"testing"

	"nnlqp/internal/graphhash"
	"nnlqp/internal/onnx"
)

func TestBaseModelsValidate(t *testing.T) {
	cases := []struct {
		name  string
		build func() *onnx.Graph
	}{
		{"alexnet", func() *onnx.Graph { return BuildAlexNet(BaseAlexNet(1)) }},
		{"vgg", func() *onnx.Graph { return BuildVGG(BaseVGG(1)) }},
		{"googlenet", func() *onnx.Graph { return BuildGoogleNet(BaseGoogleNet(1)) }},
		{"resnet", func() *onnx.Graph { return BuildResNet(BaseResNet(1)) }},
		{"resnet34", func() *onnx.Graph { return BuildResNet(ResNet34(1)) }},
		{"squeezenet", func() *onnx.Graph { return BuildSqueezeNet(BaseSqueezeNet(1)) }},
		{"mobilenetv2", func() *onnx.Graph { return BuildMobileNetV2(BaseMobileNetV2(1)) }},
		{"mobilenetv3", func() *onnx.Graph { return BuildMobileNetV3(BaseMobileNetV3(1)) }},
		{"mnasnet", func() *onnx.Graph { return BuildMnasNet(BaseMnasNet(1)) }},
		{"efficientnet", func() *onnx.Graph { return BuildEfficientNet(BaseEfficientNet(1)) }},
		{"nasbench201", func() *onnx.Graph { return BuildNasBench201(BaseNasBench201(1)) }},
		{"detection", func() *onnx.Graph { return BuildDetection(BaseDetection(1)) }},
		{"ofa", func() *onnx.Graph { return BuildOFA(RandomOFASpec(rand.New(rand.NewSource(1)), 1)) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := c.build()
			if err := g.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if _, err := g.InferShapes(); err != nil {
				t.Fatalf("InferShapes: %v", err)
			}
			cost, err := g.Cost(4)
			if err != nil {
				t.Fatalf("Cost: %v", err)
			}
			if cost.FLOPs <= 0 || cost.Params <= 0 {
				t.Fatalf("degenerate cost %+v", cost)
			}
		})
	}
}

func TestKnownFLOPsMagnitudes(t *testing.T) {
	// Sanity-check that canonical models land in the right FLOPs regime
	// (counting 2 ops per MAC): ResNet18 ≈ 3.6 GFLOPs, VGG16 ≈ 31 GFLOPs,
	// MobileNetV2 ≈ 0.6 GFLOPs.
	check := func(name string, g *onnx.Graph, lo, hi float64) {
		cost, err := g.Cost(4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gf := float64(cost.FLOPs) / 1e9
		if gf < lo || gf > hi {
			t.Errorf("%s: %.2f GFLOPs, want in [%.1f, %.1f]", name, gf, lo, hi)
		}
	}
	check("resnet18", BuildResNet(BaseResNet(1)), 3.0, 4.5)
	check("vgg16", BuildVGG(BaseVGG(1)), 25, 36)
	check("mobilenetv2", BuildMobileNetV2(BaseMobileNetV2(1)), 0.4, 0.9)
	check("alexnet", BuildAlexNet(BaseAlexNet(1)), 1.0, 2.5)
}

func TestVariantsAreValidAndDiverse(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, fam := range Families {
		t.Run(fam, func(t *testing.T) {
			keys := make(map[graphhash.Key]bool)
			for i := 0; i < 12; i++ {
				g, err := Variant(fam, rng, 1)
				if err != nil {
					t.Fatalf("Variant: %v", err)
				}
				if g.Family != fam {
					t.Fatalf("family label = %q, want %q", g.Family, fam)
				}
				if err := g.Validate(); err != nil {
					t.Fatalf("variant %d invalid: %v", i, err)
				}
				keys[graphhash.MustGraphKey(g)] = true
			}
			// With continuous width multipliers, near-total diversity is
			// expected; require a clear majority of unique structures.
			if len(keys) < 8 {
				t.Errorf("only %d unique structures in 12 variants", len(keys))
			}
		})
	}
}

func TestVariantDeterministicUnderSeed(t *testing.T) {
	a, _ := Variant(FamilyResNet, rand.New(rand.NewSource(7)), 1)
	b, _ := Variant(FamilyResNet, rand.New(rand.NewSource(7)), 1)
	if graphhash.MustGraphKey(a) != graphhash.MustGraphKey(b) {
		t.Fatal("same seed produced different variants")
	}
}

func TestVariantUnknownFamily(t *testing.T) {
	if _, err := Variant("Transformer", rand.New(rand.NewSource(1)), 1); err == nil {
		t.Fatal("want unknown-family error")
	}
}

func TestNasBench201ArchSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	seen := make(map[NasBench201Arch]bool)
	for i := 0; i < 200; i++ {
		a := RandomNasBench201Arch(rng)
		seen[a] = true
		// Every intermediate node must have a real input.
		for node := 1; node <= 3; node++ {
			has := false
			for e, ends := range nbEdges {
				if ends[1] == node && a[e] != nbNone {
					has = true
				}
			}
			if !has {
				t.Fatalf("arch %v leaves node %d unconnected", a, node)
			}
		}
	}
	if len(seen) < 150 {
		t.Fatalf("only %d unique archs in 200 samples", len(seen))
	}
}

func TestNasBench201ArchString(t *testing.T) {
	a := NasBench201Arch{nbConv3x3, nbSkip, nbNone, nbAvgPool3x3, nbConv1x1, nbConv3x3}
	want := "|conv3x3~0|+|skip~0|none~1|+|avgpool3x3~0|conv1x1~1|conv3x3~2|"
	if a.String() != want {
		t.Fatalf("String = %q", a.String())
	}
}

func TestDetectionHasMultiScaleOutputs(t *testing.T) {
	g := BuildDetection(BaseDetection(1))
	if len(g.Outputs) != 6 {
		t.Fatalf("detection outputs = %d, want 6 (cls+box on 3 levels)", len(g.Outputs))
	}
	shapes, err := g.InferShapes()
	if err != nil {
		t.Fatal(err)
	}
	// Pyramid levels must have distinct spatial sizes.
	sizes := make(map[int]bool)
	for _, o := range g.Outputs {
		sizes[shapes[o][2]] = true
	}
	if len(sizes) != 3 {
		t.Fatalf("want 3 distinct output resolutions, got %v", sizes)
	}
}

func TestOFASpecLatitudeAndAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	minSpec := OFASpec{Batch: 1, Resolution: 160}
	maxSpec := OFASpec{Batch: 1, Resolution: 224}
	for i := 0; i < 5; i++ {
		minSpec.Depths[i], minSpec.Kernels[i], minSpec.Expands[i] = 2, 3, 3
		maxSpec.Depths[i], maxSpec.Kernels[i], maxSpec.Expands[i] = 4, 7, 6
	}
	accMin, accMax := SyntheticAccuracy(minSpec), SyntheticAccuracy(maxSpec)
	if accMax <= accMin {
		t.Fatalf("accuracy should grow with capacity: %f vs %f", accMin, accMax)
	}
	if accMin < 50 || accMax > 85 {
		t.Fatalf("accuracies outside plausible ImageNet band: %f, %f", accMin, accMax)
	}
	// FLOPs should also grow with capacity.
	cMin, _ := BuildOFA(minSpec).Cost(4)
	cMax, _ := BuildOFA(maxSpec).Cost(4)
	if cMax.FLOPs <= cMin.FLOPs {
		t.Fatal("max spec should cost more FLOPs than min spec")
	}
	// Determinism of the synthetic accuracy.
	s := RandomOFASpec(rng, 1)
	if SyntheticAccuracy(s) != SyntheticAccuracy(s) {
		t.Fatal("SyntheticAccuracy must be deterministic")
	}
}

func TestRoundChAndScaleCh(t *testing.T) {
	if roundCh(1.0, 8) != 8 {
		t.Fatal("roundCh should floor at base")
	}
	if roundCh(20, 8) != 24 || roundCh(19, 8) != 16 {
		t.Fatal("roundCh rounding wrong")
	}
	if scaleCh(64, 0.5) != 32 {
		t.Fatal("scaleCh wrong")
	}
}

func TestUnrolledRNN(t *testing.T) {
	g := BuildUnrolledRNN(BaseRNN(1))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := BaseRNN(1)
	if len(g.Inputs) != cfg.Steps {
		t.Fatalf("inputs = %d, want one per time step (%d)", len(g.Inputs), cfg.Steps)
	}
	cost, err := g.Cost(4)
	if err != nil {
		t.Fatal(err)
	}
	if cost.FLOPs <= 0 {
		t.Fatal("degenerate cost")
	}
	// Unrolling more steps yields a structurally different (longer) DAG.
	long := BaseRNN(1)
	long.Steps = 12
	gl := BuildUnrolledRNN(long)
	if graphhash.MustGraphKey(g) == graphhash.MustGraphKey(gl) {
		t.Fatal("different unroll lengths must hash differently")
	}
	if len(gl.Nodes) <= len(g.Nodes) {
		t.Fatal("longer unroll should have more nodes")
	}
	// Variants are valid and diverse.
	rng := rand.New(rand.NewSource(6))
	keys := map[graphhash.Key]bool{}
	for i := 0; i < 8; i++ {
		v := RNNVariant(rng, 1)
		if err := v.Validate(); err != nil {
			t.Fatal(err)
		}
		keys[graphhash.MustGraphKey(v)] = true
	}
	if len(keys) < 6 {
		t.Fatalf("only %d unique RNN variants", len(keys))
	}
}
