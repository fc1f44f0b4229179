package serve

import (
	"context"
	"testing"

	"nnlqp/internal/hwsim"
	"nnlqp/internal/models"
	"nnlqp/internal/query"
)

// TestSchedulerColdLogFallsBackToZoo: with no query traffic the observation
// log is empty, so every candidate comes from the static model zoo.
func TestSchedulerColdLogFallsBackToZoo(t *testing.T) {
	store := testStore(t)
	sys := query.New(store, &hwsim.LocalFarm{Farm: hwsim.NewDefaultFarm(2)})
	a := NewScheduler(sys, NewEngine(nil), nil, fastActiveConfig())

	if err := a.TickOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := a.Status()
	if st.LogCandidates != 0 || st.ZooCandidates == 0 {
		t.Fatalf("cold-log draw: %+v", st)
	}
}

// TestSchedulerDrawsFromQueryLog: graphs real traffic asked about on one
// platform become measurement candidates for another platform the database
// has no ground truth on — the scheduler samples the workload's observed
// distribution instead of only synthetic zoo variants.
func TestSchedulerDrawsFromQueryLog(t *testing.T) {
	plats := hwsim.PlatformNames()
	if len(plats) < 2 {
		t.Skip("needs two simulator platforms")
	}
	source, target := plats[0], plats[1]

	store := testStore(t)
	sys := query.New(store, &hwsim.LocalFarm{Farm: hwsim.NewDefaultFarm(2)})
	for b := 1; b <= 3; b++ {
		g := models.BuildSqueezeNet(models.BaseSqueezeNet(b))
		if _, err := sys.Query(context.Background(), g, source); err != nil {
			t.Fatal(err)
		}
	}
	if len(sys.Observations(0)) != 3 {
		t.Fatalf("observation log size = %d, want 3", len(sys.Observations(0)))
	}

	cfg := fastActiveConfig()
	cfg.Platforms = []string{target}
	a := NewScheduler(sys, NewEngine(nil), nil, cfg)
	if err := a.TickOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := a.Status()
	if st.LogCandidates == 0 {
		t.Fatalf("no candidates drawn from the query log: %+v", st)
	}
	if st.Measured == 0 {
		t.Fatalf("tick measured nothing: %+v", st)
	}
}

// TestSchedulerSkipsGraphsCachedOnTarget: an observed graph whose ground
// truth is already in the target platform's L1 is not worth re-measuring, so
// the log draw skips it and falls back to the zoo.
func TestSchedulerSkipsGraphsCachedOnTarget(t *testing.T) {
	store := testStore(t)
	sys := query.New(store, &hwsim.LocalFarm{Farm: hwsim.NewDefaultFarm(2)})
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	if _, err := sys.Query(context.Background(), g, hwsim.DatasetPlatform); err != nil {
		t.Fatal(err)
	}

	a := NewScheduler(sys, NewEngine(nil), nil, fastActiveConfig())
	if err := a.TickOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := a.Status()
	if st.LogCandidates != 0 {
		t.Fatalf("cached-on-target graph drawn from log: %+v", st)
	}
	if st.ZooCandidates == 0 {
		t.Fatalf("no zoo fallback: %+v", st)
	}
}
