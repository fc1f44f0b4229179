package query

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"nnlqp/internal/graphhash"
	"nnlqp/internal/hwsim"
	"nnlqp/internal/models"
)

// checkInvariant asserts the Stats bucket identity that every Query exit
// path must preserve: Queries = Hits + Misses + Coalesced + Failures.
func checkInvariant(t *testing.T, s *System) Stats {
	t.Helper()
	st := s.Stats()
	if st.Queries != st.Hits+st.Misses+st.Coalesced+st.Failures {
		t.Fatalf("bucket invariant broken: Queries=%d != Hits=%d + Misses=%d + Coalesced=%d + Failures=%d",
			st.Queries, st.Hits, st.Misses, st.Coalesced, st.Failures)
	}
	return st
}

// TestStatsCountEveryExitPath is the regression test for the accounting bug
// where awaitFlight returned on a leader error or context cancellation
// without counting the query. It drives every failure exit — invalid input,
// failed leader, failed followers, cancelled follower — and checks the
// bucket invariant after each (run under -race: followers and leaders race
// on the flight and the stats mutex).
func TestStatsCountEveryExitPath(t *testing.T) {
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))

	// Invalid platform: fails before touching cache or store.
	s := newSystem(t)
	if _, err := s.Query(context.Background(), g, "no-such-platform"); err == nil {
		t.Fatal("want unknown-platform error")
	}
	st := checkInvariant(t, s)
	if st.Queries != 1 || st.Failures != 1 {
		t.Fatalf("stats after invalid platform = %+v", st)
	}

	// Leader measurement failure with coalesced followers: the leader and
	// every follower must each count one Failure.
	const followers = 4
	gate := make(chan struct{})
	farm := &fakeFarm{gate: gate, errEvery: 1, devices: 2}
	s2 := newSystemWith(t, farm)
	var wg sync.WaitGroup
	errs := make([]error, followers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errs[0] = s2.Query(context.Background(), g, hwsim.DatasetPlatform)
	}()
	waitForCondition(t, func() bool { return farm.Calls() == 1 })
	key, _ := graphhash.GraphKey(g)
	fkey := fmt.Sprintf("%d|%s|%d", uint64(key), hwsim.DatasetPlatform, g.BatchSize())
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s2.Query(context.Background(), g, hwsim.DatasetPlatform)
		}(i)
	}
	waitForCondition(t, func() bool {
		s2.mu.Lock()
		defer s2.mu.Unlock()
		fl, ok := s2.inflight[fkey]
		return ok && fl.followers == followers
	})
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("caller %d: want injected measurement failure", i)
		}
	}
	st = checkInvariant(t, s2)
	if st.Queries != followers+1 || st.Failures != followers+1 {
		t.Fatalf("stats after failed flight = %+v, want %d queries all failed", st, followers+1)
	}

	// Cancelled follower: the waiter that walks away counts a Failure; the
	// leader still completes as a Miss.
	gate2 := make(chan struct{})
	farm2 := &fakeFarm{gate: gate2, devices: 2}
	s3 := newSystemWith(t, farm2)
	var leaderErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, leaderErr = s3.Query(context.Background(), g, hwsim.DatasetPlatform)
	}()
	waitForCondition(t, func() bool { return farm2.Calls() == 1 })
	ctx, cancel := context.WithCancel(context.Background())
	var followerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, followerErr = s3.Query(ctx, g, hwsim.DatasetPlatform)
	}()
	waitForCondition(t, func() bool {
		s3.mu.Lock()
		defer s3.mu.Unlock()
		fl, ok := s3.inflight[fkey]
		return ok && fl.followers == 1
	})
	cancel()
	waitForCondition(t, func() bool { return checkInvariant(t, s3).Failures == 1 })
	close(gate2)
	wg.Wait()
	if leaderErr != nil {
		t.Fatalf("leader: %v", leaderErr)
	}
	if !errors.Is(followerErr, context.Canceled) {
		t.Fatalf("follower err = %v, want context.Canceled", followerErr)
	}
	st = checkInvariant(t, s3)
	if st.Queries != 2 || st.Misses != 1 || st.Failures != 1 {
		t.Fatalf("stats after cancelled follower = %+v", st)
	}
}

// TestNegativeSkipSkipsPlatformUpsert is the regression test for the
// write-before-skip bug: a query whose key is negative-cached must not touch
// the database at all — no platform upsert, no priced round trip — unless a
// measurement actually lands, in which case the deferred upsert happens (and
// is priced) at storage time.
func TestNegativeSkipSkipsPlatformUpsert(t *testing.T) {
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	key, err := graphhash.GraphKey(g)
	if err != nil {
		t.Fatal(err)
	}
	ck := CacheKey{Hash: key, Platform: hwsim.DatasetPlatform, Batch: g.BatchSize()}

	// Degraded answer under a negative-cache skip: zero database writes.
	s := newSystemWith(t, errFarm{err: fmt.Errorf("%w: boom", hwsim.ErrDeviceFault)})
	s.SetFallback(stubFallback{ms: 42})
	s.cache.PutNegative(ck)
	r, err := s.Query(context.Background(), g, hwsim.DatasetPlatform)
	if err != nil || !r.Degraded {
		t.Fatalf("r=%+v err=%v, want degraded answer", r, err)
	}
	if _, pc, _ := s.store.Counts(); pc != 0 {
		t.Fatalf("platform rows = %d after negative-skip degraded answer, want 0 (durable upsert must honor the skip)", pc)
	}
	if want := hashCostSec(g) + l1CostSec + degradedCostSec; r.SimSeconds != want {
		t.Fatalf("SimSeconds = %v, want %v (no database round trip priced)", r.SimSeconds, want)
	}

	// Measured answer under a negative-cache skip: exactly one round trip,
	// deferred to storage time, where the upsert lands with the write.
	farm := &fakeFarm{devices: 1}
	s2 := newSystemWith(t, farm)
	s2.cache.PutNegative(ck)
	r2, err := s2.Query(context.Background(), g, hwsim.DatasetPlatform)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Provenance != "measured" || r2.PlatformID == 0 || r2.ModelID == 0 {
		t.Fatalf("r2 = %+v, want measured answer with database IDs", r2)
	}
	if _, pc, lc := s2.store.Counts(); pc != 1 || lc != 1 {
		t.Fatalf("store rows = %d platforms / %d latencies, want 1/1", pc, lc)
	}
	if want := hashCostSec(g) + l1CostSec + 100 + dbCostSec; r2.SimSeconds != want {
		t.Fatalf("SimSeconds = %v, want %v (one priced round trip for the deferred upsert+write)", r2.SimSeconds, want)
	}
	checkInvariant(t, s2)
}

// TestStoreFailureDoesNotFailFollowers is the regression test for the
// overwritten-error bug: a leader whose measurement succeeded but whose
// durable write failed used to overwrite the (nil) measurement error,
// failing itself and every coalesced follower. Now the measured value is
// served (marked StoreFailed, never written to L1) and the storage failure
// is reported through Stats.StoreFailures.
func TestStoreFailureDoesNotFailFollowers(t *testing.T) {
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	const followers = 4
	gate := make(chan struct{})
	farm := &fakeFarm{gate: gate, devices: 2}
	s := newSystemWith(t, farm)
	s.storeFault = func() error { return errors.New("injected: wal device gone") }

	key, _ := graphhash.GraphKey(g)
	fkey := fmt.Sprintf("%d|%s|%d", uint64(key), hwsim.DatasetPlatform, g.BatchSize())
	results := make([]*Result, followers+1)
	errs := make([]error, followers+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], errs[0] = s.Query(context.Background(), g, hwsim.DatasetPlatform)
	}()
	waitForCondition(t, func() bool { return farm.Calls() == 1 })
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Query(context.Background(), g, hwsim.DatasetPlatform)
		}(i)
	}
	waitForCondition(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		fl, ok := s.inflight[fkey]
		return ok && fl.followers == followers
	})
	close(gate)
	wg.Wait()

	for i := 0; i <= followers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d failed over a storage hiccup: %v", i, errs[i])
		}
		if results[i].LatencyMS != 1.5 || !results[i].StoreFailed {
			t.Fatalf("caller %d result = %+v, want measured value with StoreFailed", i, results[i])
		}
	}
	if results[0].Provenance != "measured" {
		t.Fatalf("leader provenance = %q", results[0].Provenance)
	}
	coalesced := 0
	for _, r := range results[1:] {
		if r.Coalesced && r.Provenance == "coalesced" {
			coalesced++
		}
	}
	if coalesced != followers {
		t.Fatalf("coalesced followers = %d, want %d", coalesced, followers)
	}

	st := checkInvariant(t, s)
	if st.Misses != 1 || st.Coalesced != followers || st.StoreFailures != 1 || st.Failures != 0 {
		t.Fatalf("stats = %+v, want 1 miss / %d coalesced / 1 store failure", st, followers)
	}

	// The un-durable answer must not be cached: no L1 entry, no database row,
	// so the next query re-measures (and, with the fault cleared, persists).
	if cs := s.Cache().Stats(); cs.Size-cs.Negatives != 0 {
		t.Fatalf("L1 positive entries = %d after store failure, want 0", cs.Size-cs.Negatives)
	}
	if _, _, lc := s.store.Counts(); lc != 0 {
		t.Fatalf("latency rows = %d after store failure, want 0", lc)
	}
	s.storeFault = nil
	r, err := s.Query(context.Background(), g, hwsim.DatasetPlatform)
	if err != nil {
		t.Fatal(err)
	}
	if r.Hit || r.StoreFailed {
		t.Fatalf("post-recovery query = %+v, want a fresh durable measurement", r)
	}
	if farm.Calls() != 2 {
		t.Fatalf("farm calls = %d, want 2 (store failure must force a re-measure)", farm.Calls())
	}
	if _, _, lc := s.store.Counts(); lc != 1 {
		t.Fatalf("latency rows = %d after recovery, want 1", lc)
	}
}

// waitForCondition polls cond until it holds or a generous deadline lapses.
func waitForCondition(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within deadline")
		}
		time.Sleep(time.Millisecond)
	}
}
