package serve

import (
	"bytes"
	"slices"
	"testing"

	"nnlqp/internal/core"
	"nnlqp/internal/db"
	"nnlqp/internal/hwsim"
)

// perPlatformSamples is the training-set loop TrainingSamples replaced: one
// snapshot per platform and one feature extraction per (platform, record).
func perPlatformSamples(t *testing.T, store *db.Store, platforms []string) []core.Sample {
	t.Helper()
	var out []core.Sample
	for _, name := range platforms {
		p, ok, err := store.FindPlatformByName(name)
		if err != nil || !ok {
			t.Fatalf("platform %s: ok=%v err=%v", name, ok, err)
		}
		ts, err := store.TrainingSnapshot(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range ts.Records {
			mrec, ok := ts.Model(rec.ModelID)
			if !ok {
				t.Fatalf("record %d: missing model %d", rec.ID, rec.ModelID)
			}
			s, err := core.NewSample(mrec.Graph, rec.LatencyMS, name)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, s)
		}
	}
	return out
}

// fitBytes trains a small predictor at a fixed seed and returns its saved
// form, which is deterministic.
func fitBytes(t *testing.T, samples []core.Sample) []byte {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Hidden, cfg.HeadHidden, cfg.Depth, cfg.Epochs, cfg.Seed = 8, 8, 2, 3, 5
	p := core.New(cfg)
	if err := p.Fit(samples); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTrainingSamplesMatchesPerPlatformLoop: on a three-platform store where
// most models are measured on two or three platforms, the one-snapshot
// builder yields the per-platform loop's samples in the same order, and Fit
// on them at a fixed seed gives bit-identical weights — in a caller's option
// order and in platform row-id order.
func TestTrainingSamplesMatchesPerPlatformLoop(t *testing.T) {
	store := testStore(t)
	plats := hwsim.EvalPlatforms[:3]
	for i, plat := range plats {
		seedMeasurements(t, store, plat, 1+i, 6, 1)
	}
	for _, order := range [][]string{{plats[2], plats[0], plats[1]}, plats} {
		want := perPlatformSamples(t, store, order)
		got, err := TrainingSamples(store, order)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("order %v: %d samples, want %d", order, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Platform != w.Platform || g.LatencyMS != w.LatencyMS ||
				!slices.Equal(g.GF.X.Data, w.GF.X.Data) || !slices.Equal(g.GF.Static, w.GF.Static) {
				t.Fatalf("order %v sample %d: got %s %v, want %s %v", order, i, g.Platform, g.LatencyMS, w.Platform, w.LatencyMS)
			}
		}
		if !bytes.Equal(fitBytes(t, got), fitBytes(t, want)) {
			t.Fatalf("order %v: weights after Fit differ", order)
		}
	}
	if _, err := TrainingSamples(store, []string{"no-such-platform"}); err == nil {
		t.Fatal("want an error for a platform the store does not know")
	}
}
