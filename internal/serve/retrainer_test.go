package serve

import (
	"testing"
	"time"

	"nnlqp/internal/core"
	"nnlqp/internal/db"
	"nnlqp/internal/hwsim"
	"nnlqp/internal/models"
)

func testStore(t testing.TB) *db.Store {
	t.Helper()
	store, err := db.OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// seedMeasurements inserts n measurements for distinct SqueezeNet batch
// variants (distinct input shapes → distinct graph hashes), labelled with
// scale × the simulator's true latency. Batch sizes start at startBatch so
// successive calls add fresh records instead of hitting the unique key.
func seedMeasurements(t testing.TB, store *db.Store, platform string, startBatch, n int, scale float64) uint64 {
	t.Helper()
	p, err := hwsim.PlatformByName(platform)
	if err != nil {
		t.Fatal(err)
	}
	prec, err := store.InsertPlatform(p.Name, p.Hardware, p.Software, p.DType)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		batch := startBatch + i
		g := models.BuildSqueezeNet(models.BaseSqueezeNet(batch))
		ms, err := p.TrueLatencyMS(g)
		if err != nil {
			t.Fatal(err)
		}
		rec := db.LatencyRecord{BatchSize: batch, LatencyMS: ms * scale, Runs: 50}
		if _, _, err := store.RecordMeasurement(g, prec.ID, rec); err != nil {
			t.Fatal(err)
		}
	}
	return prec.ID
}

// Generation returns the live predictor's generation (0 when none).
func (e *Engine) Generation() uint64 {
	_, gen := e.Snapshot()
	return gen
}

func fastRetrainConfig() RetrainConfig {
	return RetrainConfig{
		Interval:      10 * time.Millisecond,
		MinNewRecords: 6,
		MinSamples:    10,
		HoldoutFrac:   0.25,
		DriftWindow:   8,
		Epochs:        5,
		Hidden:        16,
		Depth:         2,
		Seed:          7,
	}
}

// TestRetrainerBootstrapThenCount walks the trigger state machine: an empty
// engine bootstraps from the seeded database, stays idle while nothing new
// arrives, then retrains when a platform accumulates MinNewRecords fresh
// measurements.
func TestRetrainerBootstrapThenCount(t *testing.T) {
	store := testStore(t)
	seedMeasurements(t, store, hwsim.DatasetPlatform, 1, 12, 1)

	e := NewEngine(nil)
	r := NewRetrainer(store, e, fastRetrainConfig())

	swapped, err := r.CheckOnce()
	if err != nil {
		t.Fatal(err)
	}
	if !swapped || !e.Ready() {
		t.Fatalf("bootstrap: swapped=%v ready=%v", swapped, e.Ready())
	}
	st := r.Status()
	if st.BootstrapTriggers != 1 || st.Runs != 1 || st.Swaps != 1 {
		t.Fatalf("status after bootstrap: %+v", st)
	}
	if st.LastHoldoutMAPE <= 0 {
		t.Fatalf("bootstrap reported no holdout MAPE: %+v", st)
	}
	gen1 := e.Generation()
	if gen1 == 0 {
		t.Fatal("generation still 0 after bootstrap swap")
	}

	// Nothing new: no trigger, no run.
	if swapped, err = r.CheckOnce(); err != nil || swapped {
		t.Fatalf("idle check: swapped=%v err=%v", swapped, err)
	}
	if st := r.Status(); st.Runs != 1 {
		t.Fatalf("idle check ran the trainer: %+v", st)
	}

	// Stream MinNewRecords fresh measurements → count trigger.
	seedMeasurements(t, store, hwsim.DatasetPlatform, 13, 6, 1)
	if _, err = r.CheckOnce(); err != nil {
		t.Fatal(err)
	}
	st = r.Status()
	if st.CountTriggers != 1 || st.Runs != 2 {
		t.Fatalf("status after count trigger: %+v", st)
	}
	// The run either shipped an improved predictor (generation advanced) or
	// was rejected by the holdout gate — both leave the engine consistent.
	if st.Swaps == 2 {
		if e.Generation() == gen1 {
			t.Fatal("swap reported but generation unchanged")
		}
	} else if st.Rejects != 1 || e.Generation() != gen1 {
		t.Fatalf("rejected run must keep the incumbent: %+v gen=%d want %d",
			st, e.Generation(), gen1)
	}

	// Either way the trigger baseline advanced: no immediate re-trigger.
	if swapped, err = r.CheckOnce(); err != nil || swapped {
		t.Fatalf("baseline not consumed: swapped=%v err=%v", swapped, err)
	}
	if st := r.Status(); st.Runs != 2 {
		t.Fatalf("baseline not consumed, extra run: %+v", st)
	}
}

// TestRetrainerHoldoutGateRejects pits a 1-epoch candidate against a
// well-trained incumbent on the same holdout: the gate must keep the
// incumbent and still advance the trigger baseline.
func TestRetrainerHoldoutGateRejects(t *testing.T) {
	store := testStore(t)
	seedMeasurements(t, store, hwsim.DatasetPlatform, 1, 16, 1)

	incumbent := tinyPredictor(t, 11, 12)
	e := NewEngine(incumbent)
	gen := e.Generation()

	cfg := fastRetrainConfig()
	cfg.Epochs = 1 // cripple the candidate
	r := NewRetrainer(store, e, cfg)
	// Incumbent installed and trainedCounts empty → count trigger fires.
	swapped, err := r.CheckOnce()
	if err != nil {
		t.Fatal(err)
	}
	st := r.Status()
	if swapped {
		// A 1-epoch candidate beating a 5-epoch incumbent would be a fluke;
		// treat it as a real failure so the gate logic stays honest.
		t.Fatalf("holdout gate shipped a crippled candidate: %+v", st)
	}
	if st.Rejects != 1 || e.Generation() != gen {
		t.Fatalf("reject must keep the incumbent: %+v gen=%d want %d", st, e.Generation(), gen)
	}
	if e.Stats().Rejects != 1 {
		t.Fatalf("engine reject counter: %+v", e.Stats())
	}
	// Baseline advanced even on reject: no tight retrain loop.
	if swapped, err = r.CheckOnce(); err != nil || swapped {
		t.Fatalf("re-trigger after reject: swapped=%v err=%v", swapped, err)
	}
	if st := r.Status(); st.Runs != 1 {
		t.Fatalf("re-trigger after reject: %+v", st)
	}
}

// TestRetrainerDriftTrigger: after a bootstrap swap, the platform's
// behaviour shifts (measurements land at 3× the latencies the predictor
// learned) — the rolling-MAPE probe must notice and retrain even though the
// new-record count stays below MinNewRecords.
func TestRetrainerDriftTrigger(t *testing.T) {
	store := testStore(t)
	seedMeasurements(t, store, hwsim.DatasetPlatform, 1, 12, 1)

	e := NewEngine(nil)
	cfg := fastRetrainConfig()
	cfg.MinNewRecords = 1000 // keep the count trigger out of the way
	cfg.DriftMAPEFactor = 1.5
	r := NewRetrainer(store, e, cfg)
	if swapped, err := r.CheckOnce(); err != nil || !swapped {
		t.Fatalf("bootstrap: swapped=%v err=%v", swapped, err)
	}

	// The platform drifts: a handful of fresh records at 3× latency.
	seedMeasurements(t, store, hwsim.DatasetPlatform, 13, 4, 3)
	if _, err := r.CheckOnce(); err != nil {
		t.Fatal(err)
	}
	st := r.Status()
	if st.DriftTriggers != 1 || st.Runs != 2 {
		t.Fatalf("drift did not trigger: %+v", st)
	}
	if st.LastRollingMAPE <= 0 {
		t.Fatalf("drift probe recorded no rolling MAPE: %+v", st)
	}
}

// TestRetrainerBackgroundLoop drives the Start/Stop lifecycle: the loop
// bootstraps a predictor from the database without any manual call.
func TestRetrainerBackgroundLoop(t *testing.T) {
	store := testStore(t)
	seedMeasurements(t, store, hwsim.DatasetPlatform, 1, 12, 1)

	e := NewEngine(nil)
	r := NewRetrainer(store, e, fastRetrainConfig())
	r.Start()
	defer r.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for !e.Ready() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !e.Ready() {
		t.Fatal("background loop never installed a predictor")
	}
	r.Stop() // idempotent with the deferred Stop
	if st := r.Status(); st.Swaps < 1 {
		t.Fatalf("status: %+v", st)
	}
}

// TestRetrainerTooFewSamples: below MinSamples nothing happens, even with an
// empty engine.
func TestRetrainerTooFewSamples(t *testing.T) {
	store := testStore(t)
	seedMeasurements(t, store, hwsim.DatasetPlatform, 1, 4, 1)

	e := NewEngine(nil)
	r := NewRetrainer(store, e, fastRetrainConfig())
	if swapped, err := r.CheckOnce(); err != nil || swapped {
		t.Fatalf("swapped=%v err=%v", swapped, err)
	}
	if e.Ready() {
		t.Fatal("engine gained a predictor from 4 samples")
	}
	if st := r.Status(); st.Runs != 0 {
		t.Fatalf("status: %+v", st)
	}
}

// TestSplitHoldoutDeterministic: the retrainer and nnlqp-train must agree on
// the split for the same snapshot.
func TestSplitHoldoutDeterministic(t *testing.T) {
	var samples []core.Sample
	for i := 0; i < 20; i++ {
		g := models.BuildSqueezeNet(models.BaseSqueezeNet(i + 1))
		s, err := core.NewSample(g, float64(i+1), hwsim.DatasetPlatform)
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, s)
	}
	tr1, ho1 := core.SplitHoldout(samples, 0.25)
	tr2, ho2 := core.SplitHoldout(samples, 0.25)
	if len(tr1) != 15 || len(ho1) != 5 {
		t.Fatalf("split sizes: %d/%d", len(tr1), len(ho1))
	}
	for i := range ho1 {
		if ho1[i].LatencyMS != ho2[i].LatencyMS {
			t.Fatal("holdout split not deterministic")
		}
	}
	if len(tr2) != len(tr1) {
		t.Fatal("train split not deterministic")
	}
	// Tiny or disabled splits return everything as train.
	tr3, ho3 := core.SplitHoldout(samples[:3], 0.25)
	if len(tr3) != 3 || ho3 != nil {
		t.Fatalf("tiny split: %d/%d", len(tr3), len(ho3))
	}
}
