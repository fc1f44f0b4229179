package query

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"nnlqp/internal/hwsim"
	"nnlqp/internal/models"
	"nnlqp/internal/onnx"
)

// errFarm always fails with a fixed error.
type errFarm struct{ err error }

func (f errFarm) Measure(context.Context, string, *onnx.Graph, string) (*hwsim.MeasureResult, error) {
	return nil, f.err
}

// stubFallback answers every prediction with a fixed estimate.
type stubFallback struct{ ms float64 }

func (s stubFallback) Predict(*onnx.Graph, string) (float64, error) { return s.ms, nil }

func TestQueryDegradesToFallback(t *testing.T) {
	cases := []struct {
		name         string
		err          error
		wantDegraded bool
	}{
		{"all quarantined", fmt.Errorf("%w: platform has 0/2 healthy devices", hwsim.ErrAllQuarantined), true},
		{"device fault", fmt.Errorf("%w: device gpu#0 crashed", hwsim.ErrDeviceFault), true},
		{"retries exhausted", fmt.Errorf("resilience: gave up after 3 attempts: %w", hwsim.ErrDeviceFault), true},
		{"deadline expired", context.DeadlineExceeded, true},
		{"unsupported op", &hwsim.UnsupportedOpError{Platform: "p", Op: "HardSigmoid"}, false},
		{"caller cancelled", context.Canceled, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := newSystemWith(t, errFarm{err: c.err})
			s.SetFallback(stubFallback{ms: 42})
			g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
			r, err := s.Query(context.Background(), g, hwsim.DatasetPlatform)

			if !c.wantDegraded {
				if err == nil {
					t.Fatalf("want the farm error to surface, got %+v", r)
				}
				if !errors.Is(err, c.err) {
					var target *hwsim.UnsupportedOpError
					if !errors.As(err, &target) {
						t.Fatalf("err = %v, want the original cause", err)
					}
				}
				return
			}

			if err != nil {
				t.Fatalf("degradable failure must answer from the fallback: %v", err)
			}
			if !r.Degraded || r.Provenance != "degraded" || r.LatencyMS != 42 {
				t.Fatalf("result = %+v, want degraded predictor estimate", r)
			}
			st := s.Stats()
			if st.Misses != 1 || st.Degraded != 1 {
				t.Fatalf("stats = %+v, want 1 miss / 1 degraded", st)
			}
			// A guess must never enter the database as ground truth...
			if _, _, lc := s.store.Counts(); lc != 0 {
				t.Fatalf("latency records = %d, want 0 after a degraded answer", lc)
			}
			// ...nor the L1 tier: only durable measurements are written
			// through, so a degraded answer leaves no positive entry.
			if cs := s.Cache().Stats(); cs.Size-cs.Negatives != 0 {
				t.Fatalf("L1 positive entries = %d, want 0 after a degraded answer", cs.Size-cs.Negatives)
			}
			// The flight retired cleanly: the next query re-attempts (and
			// degrades again) instead of serving a stale cache entry.
			r2, err := s.Query(context.Background(), g, hwsim.DatasetPlatform)
			if err != nil || !r2.Degraded {
				t.Fatalf("second query = %+v, %v", r2, err)
			}
		})
	}
}

func TestQueryNoFallbackSurfacesFarmError(t *testing.T) {
	cause := fmt.Errorf("%w: platform has 0/1 healthy devices", hwsim.ErrAllQuarantined)
	s := newSystemWith(t, errFarm{err: cause})
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	_, err := s.Query(context.Background(), g, hwsim.DatasetPlatform)
	if !errors.Is(err, hwsim.ErrAllQuarantined) {
		t.Fatalf("err = %v, want ErrAllQuarantined without a fallback", err)
	}
}

func TestQueryAllQuarantinedPlatformDegrades(t *testing.T) {
	// A real (not stubbed) farm whose only device sits in quarantine: Acquire
	// fails fast with ErrAllQuarantined and the query degrades.
	p, err := hwsim.PlatformByName(hwsim.DatasetPlatform)
	if err != nil {
		t.Fatal(err)
	}
	farm := hwsim.NewFarm()
	farm.AddDevice(&hwsim.Device{ID: "only", Platform: p})
	farm.Quarantine("only", time.Minute)
	s := newSystemWith(t, &hwsim.LocalFarm{Farm: farm})
	s.SetFallback(stubFallback{ms: 7})

	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	r, err := s.Query(context.Background(), g, hwsim.DatasetPlatform)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Degraded || r.LatencyMS != 7 {
		t.Fatalf("result = %+v, want degraded estimate", r)
	}
	st := s.Stats()
	if st.Degraded != 1 || st.QuarantinedNow != 1 || st.Quarantines != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// gatedErrFarm blocks every Measure at the gate, then fails with err: the
// deterministic way to pile followers onto a flight that will degrade.
type gatedErrFarm struct {
	gate chan struct{}
	err  error
}

func (f *gatedErrFarm) Measure(ctx context.Context, _ string, _ *onnx.Graph, _ string) (*hwsim.MeasureResult, error) {
	select {
	case <-f.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return nil, f.err
}

func TestQueryCoalescedWaitersShareDegradedResult(t *testing.T) {
	const n = 8
	farm := &gatedErrFarm{
		gate: make(chan struct{}),
		err:  fmt.Errorf("%w: platform has 0/2 healthy devices", hwsim.ErrAllQuarantined),
	}
	s := newSystemWith(t, farm)
	s.SetFallback(stubFallback{ms: 13})
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
	// Hold the leader at the gate until all followers joined its flight.
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

	coalesced := 0
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		r := results[i]
		if !r.Degraded || r.Provenance != "degraded" || r.LatencyMS != 13 {
			t.Fatalf("query %d = %+v: every waiter must see the degraded result", i, r)
		}
		if r.Coalesced {
			coalesced++
		}
	}
	if coalesced != n-1 {
		t.Fatalf("coalesced = %d, want %d", coalesced, n-1)
	}
	st := s.Stats()
	if st.Misses != 1 || st.Coalesced != n-1 || st.Degraded != n {
		t.Fatalf("stats = %+v, want 1 miss, %d coalesced, %d degraded", st, n-1, n)
	}
	if _, _, lc := s.store.Counts(); lc != 0 {
		t.Fatalf("latency records = %d, want 0", lc)
	}
	if cs := s.Cache().Stats(); cs.Size-cs.Negatives != 0 {
		t.Fatalf("L1 positive entries = %d, want 0 after a degraded storm", cs.Size-cs.Negatives)
	}
}
