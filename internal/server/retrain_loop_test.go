package server

import (
	"context"
	"testing"
	"time"

	"nnlqp/internal/hwsim"
	"nnlqp/internal/models"
	"nnlqp/internal/serve"
)

// Engine exposes the predictor engine, to inspect generation and swap
// history.
func (s *Server) Engine() *serve.Engine { return s.engine }

// TestServerRetrainLoopEvolves is the acceptance scenario for the online
// loop: a server started with retraining enabled and *no* predictor must
// evolve without a restart. Streaming measurements through /query bootstraps
// a first predictor (generation advances from zero), further measurements arm
// the count trigger for a second run whose candidate either swaps (it beat
// the incumbent on the holdout) or is rejected and counted, and post-swap
// /predict answers must be exactly what the live engine's weights compute.
// The companion race — an in-flight batched window completing under its
// captured generation across a swap — is pinned by
// TestPredictHotSwapRacesBatchedWindow.
func TestServerRetrainLoopEvolves(t *testing.T) {
	c, srv := startServer(t, nil)
	srv.ConfigurePredictBatching(10*time.Millisecond, 16)
	rt := srv.EnableRetraining(serve.RetrainConfig{
		Interval:      10 * time.Millisecond,
		MinNewRecords: 8,
		MinSamples:    10,
		HoldoutFrac:   0.25,
		// A tiny 5-epoch model's rolling MAPE is noisy; an effectively
		// disabled drift trigger keeps this test's trigger sequence
		// (bootstrap, then count) deterministic.
		DriftMAPEFactor: 1e9,
		Epochs:          5,
		Hidden:          16,
		Depth:           2,
		Seed:            7,
	})

	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))

	// Phase 0: nothing trained yet — /predict must refuse, not guess.
	if _, err := c.PredictDetailed(context.Background(), g, hwsim.DatasetPlatform, 0); err == nil {
		t.Fatal("predict succeeded before any predictor existed")
	}

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; engine=%+v retrain=%+v",
					what, srv.Engine().Stats(), rt.Status())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Phase 1: stream measurements; the bootstrap trigger must train and
	// install a first predictor.
	for i := 0; i < 12; i++ {
		gi := models.BuildSqueezeNet(models.BaseSqueezeNet(i + 1))
		if _, err := c.Query(gi, hwsim.DatasetPlatform, 0); err != nil {
			t.Fatal(err)
		}
	}
	waitFor("bootstrap swap", func() bool {
		st := srv.Engine().Stats()
		return st.Ready && st.Generation != 0 && st.Swaps >= 1
	})
	gen1 := srv.Engine().Stats().Generation
	runs1 := rt.Status().Runs
	if rt.Status().BootstrapTriggers == 0 {
		t.Fatalf("first run was not the bootstrap trigger: %+v", rt.Status())
	}

	// The evolved server predicts over HTTP now, generation attached.
	resp, err := c.PredictDetailed(context.Background(), g, hwsim.DatasetPlatform, 0)
	if err != nil {
		t.Fatalf("predict after bootstrap: %v", err)
	}
	if resp.Generation == 0 || resp.LatencyMS <= 0 {
		t.Fatalf("post-bootstrap predict: %+v", resp)
	}

	// Phase 2: enough fresh measurements to arm the count trigger. The next
	// run must finish as a swap (candidate beat the incumbent's holdout MAPE)
	// or a counted reject — never a silent stall.
	for i := 0; i < 10; i++ {
		gi := models.BuildSqueezeNet(models.BaseSqueezeNet(i + 13))
		if _, err := c.Query(gi, hwsim.DatasetPlatform, 0); err != nil {
			t.Fatal(err)
		}
	}
	waitFor("count-triggered run", func() bool {
		st, eng := rt.Status(), srv.Engine().Stats()
		return st.Runs > runs1 && (eng.Swaps >= 2 || eng.Rejects >= 1)
	})
	if rt.Status().CountTriggers == 0 {
		t.Fatalf("second run was not count-triggered: %+v", rt.Status())
	}

	// Freeze the loop, then verify /predict serves exactly the live weights.
	rt.Stop()
	eng := srv.Engine()
	pred, gen := eng.Snapshot()
	if gen < gen1 {
		t.Fatalf("generation went backwards: %d then %d", gen1, gen)
	}
	want, err := pred.Predict(g, hwsim.DatasetPlatform)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = c.PredictDetailed(context.Background(), g, hwsim.DatasetPlatform, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Generation != gen || resp.LatencyMS != want {
		t.Fatalf("post-swap predict (gen %d, %v) does not reflect the live weights (gen %d, %v)",
			resp.Generation, resp.LatencyMS, gen, want)
	}

	// The swap history must be visible over HTTP with its holdout metrics.
	er, err := c.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if len(er.History) == 0 || er.Engine.Generation != gen {
		t.Fatalf("/engine: %+v", er)
	}
	if er.Retrain == nil || er.Retrain.Runs < 2 {
		t.Fatalf("/engine retrain status: %+v", er.Retrain)
	}
	for _, rec := range er.History {
		if rec.HoldoutN == 0 {
			t.Fatalf("swap %d validated against an empty holdout: %+v", rec.Seq, rec)
		}
	}
}
