package nas

import (
	"math"
	"math/rand"
	"testing"

	"nnlqp/internal/hwsim"
	"nnlqp/internal/models"
)

func TestKendallTauKnownValues(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if KendallTau(a, []float64{10, 20, 30, 40}) != 1 {
		t.Fatal("perfect agreement should be 1")
	}
	if KendallTau(a, []float64{40, 30, 20, 10}) != -1 {
		t.Fatal("perfect reversal should be -1")
	}
	tau := KendallTau(a, []float64{10, 20, 40, 30})
	// 5 concordant, 1 discordant of 6 pairs = 4/6.
	if math.Abs(tau-4.0/6) > 1e-12 {
		t.Fatalf("tau = %f", tau)
	}
	if !math.IsNaN(KendallTau(a, []float64{1})) || !math.IsNaN(KendallTau(nil, nil)) {
		t.Fatal("degenerate inputs should yield NaN")
	}
}

func mkCands() []Candidate {
	// (lat, acc): Pareto front under true latency = A(1,60), C(2,70), E(4,80).
	return []Candidate{
		{TrueLatMS: 1, Accuracy: 60},
		{TrueLatMS: 2, Accuracy: 55}, // dominated
		{TrueLatMS: 2, Accuracy: 70},
		{TrueLatMS: 3, Accuracy: 65}, // dominated
		{TrueLatMS: 4, Accuracy: 80},
	}
}

func TestParetoFront(t *testing.T) {
	cands := mkCands()
	front := ParetoFront(cands, func(c Candidate) float64 { return c.TrueLatMS })
	want := []int{0, 2, 4}
	if len(front) != len(want) {
		t.Fatalf("front = %v", front)
	}
	for i := range want {
		if front[i] != want[i] {
			t.Fatalf("front = %v, want %v", front, want)
		}
	}
}

func TestParetoFrontUnderNoisyProxy(t *testing.T) {
	cands := mkCands()
	// A proxy that reverses latency ordering picks different models.
	front := ParetoFront(cands, func(c Candidate) float64 { return -c.TrueLatMS })
	// Under the reversed metric the "cheapest" is index 4 (acc 80) and
	// everything after is dominated.
	if len(front) != 1 || front[0] != 4 {
		t.Fatalf("front = %v", front)
	}
}

func TestBestAccuracyUnder(t *testing.T) {
	cands := mkCands()
	lat := func(c Candidate) float64 { return c.TrueLatMS }
	best, ok := BestAccuracyUnder(cands, lat, 2.5)
	if !ok || best.Accuracy != 70 {
		t.Fatalf("best = %+v ok=%v", best, ok)
	}
	if _, ok := BestAccuracyUnder(cands, lat, 0.5); ok {
		t.Fatal("no candidate fits budget 0.5")
	}
}

func TestFrontAccuracyGain(t *testing.T) {
	cands := mkCands()
	lat := func(c Candidate) float64 { return c.TrueLatMS }
	frontTrue := ParetoFront(cands, lat)
	// A worse "front" consisting of dominated points.
	frontBad := []int{1, 3}
	gain := FrontAccuracyGain(cands, frontTrue, frontBad)
	if math.IsNaN(gain) || gain <= 0 {
		t.Fatalf("true front should beat dominated front, gain=%f", gain)
	}
	if !math.IsNaN(FrontAccuracyGain(cands, nil, frontBad)) {
		t.Fatal("empty front should yield NaN")
	}
}

func TestLookupTableCalibrateEstimate(t *testing.T) {
	p, err := hwsim.PlatformByName(hwsim.DatasetPlatform)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	lt := NewLookupTable()
	// Calibrate on a few OFA subnets.
	for i := 0; i < 5; i++ {
		g := models.BuildOFA(models.RandomOFASpec(rng, 1))
		nodeLat, err := p.NodeLatencies(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := lt.Calibrate(g, nodeLat); err != nil {
			t.Fatal(err)
		}
	}
	if len(lt.byKey) == 0 {
		t.Fatal("no entries after calibration")
	}
	// Estimate correlates with true latency across fresh samples.
	var ests, truths []float64
	for i := 0; i < 15; i++ {
		g := models.BuildOFA(models.RandomOFASpec(rng, 1))
		e, err := lt.Estimate(g)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := p.TrueLatencyMS(g)
		if err != nil {
			t.Fatal(err)
		}
		ests = append(ests, e)
		truths = append(truths, tr)
	}
	tau := KendallTau(ests, truths)
	t.Logf("LUT tau vs truth: %.3f", tau)
	if tau < 0.5 {
		t.Fatalf("lookup table should correlate with truth, tau=%.3f", tau)
	}
	// LUT over-estimates the model latency (sums standalone ops).
	var over int
	for i := range ests {
		if ests[i] > truths[i] {
			over++
		}
	}
	if over < len(ests)*2/3 {
		t.Fatalf("LUT should usually over-estimate: %d/%d", over, len(ests))
	}
}

func TestLookupTableFallbacks(t *testing.T) {
	p, _ := hwsim.PlatformByName(hwsim.DatasetPlatform)
	lt := NewLookupTable()
	small := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	nodeLat, _ := p.NodeLatencies(small)
	if err := lt.Calibrate(small, nodeLat); err != nil {
		t.Fatal(err)
	}
	// Estimating a very different model exercises op-level and global
	// fallbacks without crashing.
	other := models.BuildAlexNet(models.BaseAlexNet(1))
	v, err := lt.Estimate(other)
	if err != nil || v <= 0 {
		t.Fatalf("estimate = %f, %v", v, err)
	}
}

func newTestRng() *rand.Rand { return rand.New(rand.NewSource(123)) }
