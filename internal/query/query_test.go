package query

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"nnlqp/internal/db"
	"nnlqp/internal/graphhash"
	"nnlqp/internal/hwsim"
	"nnlqp/internal/lru"
	"nnlqp/internal/models"
	"nnlqp/internal/onnx"
)

func newSystem(t *testing.T) *System {
	t.Helper()
	store, err := db.OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	farm := &hwsim.LocalFarm{Farm: hwsim.NewDefaultFarm(2)}
	return New(store, farm)
}

func newSystemWith(t *testing.T, farm Measurer) *System {
	t.Helper()
	store, err := db.OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return New(store, farm)
}

// fakeFarm is a counting Measurer with a configurable per-measure delay and
// device count, for concurrency tests that must not depend on simulator
// speed.
type fakeFarm struct {
	mu       sync.Mutex
	calls    int
	delay    time.Duration
	devices  int
	errEvery int           // fail every Nth call when > 0
	gate     chan struct{} // when set, Measure blocks until the gate closes
}

func (f *fakeFarm) Measure(ctx context.Context, platform string, g *onnx.Graph, holder string) (*hwsim.MeasureResult, error) {
	f.mu.Lock()
	f.calls++
	n := f.calls
	f.mu.Unlock()
	if f.gate != nil {
		select {
		case <-f.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if f.errEvery > 0 && n%f.errEvery == 0 {
		return nil, fmt.Errorf("fake farm: injected failure on call %d", n)
	}
	return &hwsim.MeasureResult{LatencyMS: 1.5, Runs: 50, PipelineSec: 100}, nil
}

func (f *fakeFarm) Devices(string) int { return f.devices }

func (f *fakeFarm) Calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func TestQueryMissThenHit(t *testing.T) {
	s := newSystem(t)
	ctx := context.Background()
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))

	r1, err := s.Query(ctx, g, hwsim.DatasetPlatform)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Hit {
		t.Fatal("first query must miss")
	}
	if r1.LatencyMS <= 0 {
		t.Fatal("latency must be positive")
	}

	r2, err := s.Query(ctx, g, hwsim.DatasetPlatform)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Hit {
		t.Fatal("second query must hit")
	}
	if r2.LatencyMS != r1.LatencyMS {
		t.Fatalf("cached latency %.6f != measured %.6f", r2.LatencyMS, r1.LatencyMS)
	}
	// A hit must be vastly cheaper than the cold pipeline.
	if r2.SimSeconds*10 > r1.SimSeconds {
		t.Fatalf("hit cost %.2fs not ≪ miss cost %.2fs", r2.SimSeconds, r1.SimSeconds)
	}
	st := s.Stats()
	if st.Queries != 2 || st.Hits != 1 || st.Misses != 1 || st.Coalesced != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.HitRatio() != 0.5 {
		t.Fatalf("hit ratio = %f", st.HitRatio())
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight = %d after queries returned", st.InFlight)
	}
}

func TestQuerySameStructureDifferentNameHits(t *testing.T) {
	s := newSystem(t)
	ctx := context.Background()
	a := models.BuildResNet(models.BaseResNet(1))
	b := a.Clone()
	b.Name = "renamed-resnet"
	if _, err := s.Query(ctx, a, hwsim.DatasetPlatform); err != nil {
		t.Fatal(err)
	}
	r, err := s.Query(ctx, b, hwsim.DatasetPlatform)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Hit {
		t.Fatal("structurally identical model must hit the cache")
	}
}

func TestQueryDifferentPlatformMisses(t *testing.T) {
	s := newSystem(t)
	ctx := context.Background()
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	if _, err := s.Query(ctx, g, "gpu-T4-trt7.1-fp32"); err != nil {
		t.Fatal(err)
	}
	r, err := s.Query(ctx, g, "gpu-P4-trt7.1-fp32")
	if err != nil {
		t.Fatal(err)
	}
	if r.Hit {
		t.Fatal("different platform must miss")
	}
}

func TestQueryDifferentBatchMisses(t *testing.T) {
	s := newSystem(t)
	ctx := context.Background()
	if _, err := s.Query(ctx, models.BuildSqueezeNet(models.BaseSqueezeNet(1)), hwsim.DatasetPlatform); err != nil {
		t.Fatal(err)
	}
	r, err := s.Query(ctx, models.BuildSqueezeNet(models.BaseSqueezeNet(4)), hwsim.DatasetPlatform)
	if err != nil {
		t.Fatal(err)
	}
	if r.Hit {
		t.Fatal("different batch size must miss")
	}
}

func TestQueryUnknownPlatform(t *testing.T) {
	s := newSystem(t)
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	_, err := s.Query(context.Background(), g, "quantum-accelerator")
	if err == nil {
		t.Fatal("want unknown-platform error")
	}
	if !errors.Is(err, hwsim.ErrUnknownPlatform) {
		t.Fatalf("err = %v, want ErrUnknownPlatform", err)
	}
}

func TestQueryUnsupportedOpSurfacesError(t *testing.T) {
	s := newSystem(t)
	g := models.BuildMobileNetV3(models.BaseMobileNetV3(1))
	if _, err := s.Query(context.Background(), g, "cpu-openppl-fp32"); err == nil {
		t.Fatal("want unsupported-op error from the pipeline")
	}
}

func TestWarmPrepopulatesCache(t *testing.T) {
	s := newSystem(t)
	g := models.BuildResNet(models.BaseResNet(1))
	if err := s.Warm(g, hwsim.DatasetPlatform); err != nil {
		t.Fatal(err)
	}
	r, err := s.Query(context.Background(), g, hwsim.DatasetPlatform)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Hit {
		t.Fatal("warmed record must hit")
	}
	// Warm twice is fine (idempotent).
	if err := s.Warm(g, hwsim.DatasetPlatform); err != nil {
		t.Fatal(err)
	}
}

func TestQueryManyTotals(t *testing.T) {
	s := newSystem(t)
	rng := rand.New(rand.NewSource(1))
	g1, err := models.Variant(models.FamilySqueezeNet, rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := models.Variant(models.FamilySqueezeNet, rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*onnx.Graph{g1, g2, g1} // third repeats the first
	results, total, err := s.QueryMany(context.Background(), graphs, hwsim.DatasetPlatform)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	// The pool runs items concurrently, so the duplicate pair resolves to
	// exactly one measurement: one of {0, 2} misses, the other is a cache
	// hit or a coalesced share of the in-flight measurement.
	if results[1].Hit || results[1].Coalesced {
		t.Fatalf("distinct model must miss: %+v", results[1])
	}
	misses := 0
	for _, i := range []int{0, 2} {
		if !results[i].Hit && !results[i].Coalesced {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("duplicate pair produced %d misses, want 1 (%+v / %+v)", misses, results[0], results[2])
	}
	var sum float64
	for _, r := range results {
		sum += r.SimSeconds
	}
	if total != sum {
		t.Fatalf("total %.3f != sum %.3f", total, sum)
	}
	// Exactly one latency record for the duplicated structure.
	_, _, lc := s.store.Counts()
	if lc != 2 {
		t.Fatalf("latency records = %d, want 2", lc)
	}
}

// TestQueryManyMeasuresEachKeyOnce is the property behind TestQueryManyTotals:
// however duplicates interleave, every (graph, platform, batch) key reaches
// the farm exactly once. 64 concurrent QueryMany calls run over the same
// graphs behind an L1 of one entry per shard, so positive entries are evicted
// while duplicates are still arriving, and late callers that find the flight
// table empty must find the stored row on their re-check instead of
// measuring again.
func TestQueryManyMeasuresEachKeyOnce(t *testing.T) {
	farm := &fakeFarm{devices: 4}
	s := newSystemWith(t, farm)
	s.ConfigureCache(lru.Shards, 0)
	rng := rand.New(rand.NewSource(11))
	keys := map[graphhash.Key]bool{}
	var graphs []*onnx.Graph
	for len(graphs) < 24 {
		g, err := models.Variant(models.FamilySqueezeNet, rng, 1)
		if err != nil {
			t.Fatal(err)
		}
		key, err := graphhash.GraphKey(g)
		if err != nil {
			t.Fatal(err)
		}
		if !keys[key] {
			keys[key] = true
			graphs = append(graphs, g)
		}
	}
	const callers = 64
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = s.QueryMany(context.Background(), graphs, hwsim.DatasetPlatform)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	st := checkInvariant(t, s)
	if calls := farm.Calls(); calls != len(keys) {
		t.Fatalf("farm measured %d times for %d distinct keys (stats %+v)", calls, len(keys), st)
	}
	if st.DuplicateMeasurements != 0 || st.Misses != len(keys) || st.Queries != callers*len(graphs) {
		t.Fatalf("stats %+v, want %d misses of %d queries and no duplicate measurements", st, len(keys), callers*len(graphs))
	}
}

func TestQueryManyPreservesOrderAndAggregatesErrors(t *testing.T) {
	farm := &fakeFarm{devices: 4, errEvery: 3}
	s := newSystemWith(t, farm)
	graphs := make([]*onnx.Graph, 0, 9)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 9; i++ {
		g, err := models.Variant(models.FamilySqueezeNet, rng, 1)
		if err != nil {
			t.Fatal(err)
		}
		g.Name = fmt.Sprintf("m%02d", i)
		graphs = append(graphs, g)
	}
	results, _, err := s.QueryMany(context.Background(), graphs, hwsim.DatasetPlatform)
	if err == nil {
		t.Fatal("want joined error for injected failures")
	}
	if len(results) != len(graphs) {
		t.Fatalf("results = %d, want %d", len(results), len(graphs))
	}
	ok, failed := 0, 0
	for _, r := range results {
		if r != nil {
			ok++
		} else {
			failed++
		}
	}
	if ok == 0 || failed == 0 {
		t.Fatalf("ok=%d failed=%d: batch must continue past per-item failures", ok, failed)
	}
}

func TestQueryConcurrentSameModel(t *testing.T) {
	s := newSystem(t)
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Query(context.Background(), g, hwsim.DatasetPlatform); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Exactly one latency record must exist afterwards.
	_, _, lc := s.store.Counts()
	if lc != 1 {
		t.Fatalf("latency records = %d, want 1", lc)
	}
}

func TestQueryCoalescesConcurrentIdenticalMisses(t *testing.T) {
	const n = 16
	farm := &fakeFarm{devices: 4, gate: make(chan struct{})}
	s := newSystemWith(t, farm)
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))

	var wg sync.WaitGroup
	results := make([]*Result, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Query(context.Background(), g, hwsim.DatasetPlatform)
		}(i)
	}
	// Hold the leader's measurement at the gate until all 15 followers have
	// joined its flight, so the coalescing count is deterministic.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		joined := 0
		for _, fl := range s.inflight {
			joined = fl.followers
		}
		s.mu.Unlock()
		if joined == n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d followers joined the flight", joined)
		}
		time.Sleep(time.Millisecond)
	}
	close(farm.gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}

	if got := farm.Calls(); got != 1 {
		t.Fatalf("farm measurements = %d, want exactly 1 for %d identical misses", got, n)
	}
	misses, coalesced := 0, 0
	for _, r := range results {
		switch {
		case r.Coalesced:
			coalesced++
		case !r.Hit:
			misses++
		}
		if r.LatencyMS != results[0].LatencyMS {
			t.Fatalf("shared result diverged: %.6f != %.6f", r.LatencyMS, results[0].LatencyMS)
		}
	}
	if misses != 1 || coalesced != n-1 {
		t.Fatalf("misses=%d coalesced=%d, want 1 and %d", misses, coalesced, n-1)
	}
	st := s.Stats()
	if st.Misses != 1 || st.Coalesced != n-1 || st.Queries != n {
		t.Fatalf("stats = %+v", st)
	}
	// Exactly one latency record.
	_, _, lc := s.store.Counts()
	if lc != 1 {
		t.Fatalf("latency records = %d, want 1", lc)
	}
}

func TestQueryCancelledWhileWaitingForDevice(t *testing.T) {
	// One device, held by us: a query must block in the device wait and
	// return promptly on cancellation without consuming the slot.
	p, err := hwsim.PlatformByName(hwsim.DatasetPlatform)
	if err != nil {
		t.Fatal(err)
	}
	farm := hwsim.NewFarm()
	farm.AddDevice(&hwsim.Device{ID: "only", Platform: p})
	s := newSystemWith(t, &hwsim.LocalFarm{Farm: farm})

	d, err := farm.Acquire(context.Background(), p.Name, "hog")
	if err != nil {
		t.Fatal(err)
	}
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Query(ctx, g, p.Name)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled query never returned")
	}

	// Slot not leaked: after releasing the hog, a fresh query succeeds.
	farm.Release(d)
	r, err := s.Query(context.Background(), g, p.Name)
	if err != nil {
		t.Fatal(err)
	}
	if r.LatencyMS <= 0 {
		t.Fatalf("degenerate result %+v", r)
	}
	if s.Stats().InFlight != 0 {
		t.Fatalf("in-flight = %d, want 0", s.Stats().InFlight)
	}
}

func TestQueryManyParallelIsFasterThanSequential(t *testing.T) {
	const (
		nModels = 32
		delay   = 10 * time.Millisecond
	)
	farm := &fakeFarm{devices: 8, delay: delay}
	s := newSystemWith(t, farm)
	rng := rand.New(rand.NewSource(3))
	graphs := make([]*onnx.Graph, 0, nModels)
	for i := 0; i < nModels; i++ {
		g, err := models.Variant(models.FamilySqueezeNet, rng, 1)
		if err != nil {
			t.Fatal(err)
		}
		g.Name = fmt.Sprintf("par-%02d", i)
		graphs = append(graphs, g)
	}

	start := time.Now()
	results, _, err := s.QueryMany(context.Background(), graphs, hwsim.DatasetPlatform)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	for i, r := range results {
		if r == nil {
			t.Fatalf("result %d missing", i)
		}
	}
	// Sequential would take >= nModels*delay (320ms at these settings) just
	// in measurement sleeps; the 8-wide pool should land well under half.
	sequential := time.Duration(nModels) * delay
	if elapsed > sequential/2 {
		t.Fatalf("parallel QueryMany took %s, sequential floor is %s", elapsed, sequential)
	}
}

func TestQueryManyWorkersRespectsBound(t *testing.T) {
	farm := &fakeFarm{devices: 16, delay: 5 * time.Millisecond}
	s := newSystemWith(t, farm)
	rng := rand.New(rand.NewSource(5))
	graphs := make([]*onnx.Graph, 0, 6)
	for i := 0; i < 6; i++ {
		g, err := models.Variant(models.FamilySqueezeNet, rng, 1)
		if err != nil {
			t.Fatal(err)
		}
		g.Name = fmt.Sprintf("w%d", i)
		graphs = append(graphs, g)
	}
	results, _, err := s.QueryManyWorkers(context.Background(), graphs, hwsim.DatasetPlatform, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r == nil || r.Hit || r.Coalesced {
			t.Fatalf("result %d = %+v: distinct models with 1 worker must all miss", i, r)
		}
	}
}

func TestQueryRejectsInvalidGraph(t *testing.T) {
	s := newSystem(t)
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	g.Nodes[0].Inputs[0] = "ghost"
	if _, err := s.Query(context.Background(), g, hwsim.DatasetPlatform); err == nil {
		t.Fatal("want validation error")
	}
}

func TestQueryThroughRemoteFarm(t *testing.T) {
	// End-to-end: query system -> RPC -> device farm, with the cache layer
	// in front, mirroring the paper's deployment (serving host separate
	// from the device farm).
	farm := hwsim.NewDefaultFarm(1)
	srv, err := hwsim.ServeFarm(farm, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote, err := hwsim.DialFarm(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	store, err := db.OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sys := New(store, remote)

	ctx := context.Background()
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	r1, err := sys.Query(ctx, g, hwsim.DatasetPlatform)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Hit {
		t.Fatal("first remote query must miss")
	}
	r2, err := sys.Query(ctx, g, hwsim.DatasetPlatform)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Hit || r2.LatencyMS != r1.LatencyMS {
		t.Fatal("second query should hit with identical latency")
	}
	// Remote result must equal a local measurement of the same model.
	local := &hwsim.LocalFarm{Farm: hwsim.NewDefaultFarm(1)}
	lm, err := local.Measure(ctx, hwsim.DatasetPlatform, g, "check")
	if err != nil {
		t.Fatal(err)
	}
	if lm.LatencyMS != r1.LatencyMS {
		t.Fatalf("remote %.6f != local %.6f", r1.LatencyMS, lm.LatencyMS)
	}
}
