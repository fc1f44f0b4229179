package server

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"nnlqp/internal/hwsim"
	"nnlqp/internal/models"
	"nnlqp/internal/onnx"
)

// variantGraphs builds n distinct SqueezeNet variants (the family the tiny
// test predictor is trained on).
func variantGraphs(t *testing.T, n int, seed int64) []*onnx.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]*onnx.Graph, 0, n)
	for i := 0; i < n; i++ {
		g, err := models.Variant(models.FamilySqueezeNet, rng, 1)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, g)
	}
	return out
}

// TestPredictBatchingFanIn gathers N concurrent /predict requests into one
// packed forward pass (the window is long and the width cap is exactly N, so
// the Nth arrival is the deterministic flush trigger) and checks that every
// caller gets the bit-identical solo answer, that the batch populated the
// memo, and that the counters surface through /stats.
func TestPredictBatchingFanIn(t *testing.T) {
	const n = 6
	pred := trainTinyPredictor(t)
	c, srv := startServer(t, pred)
	srv.ConfigurePredictBatching(5*time.Second, n)
	graphs := variantGraphs(t, n, 41)

	want := make([]float64, n)
	for i, g := range graphs {
		v, err := pred.Predict(g, hwsim.DatasetPlatform)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}

	got := make([]PredictResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, err := encodeRequest(graphs[i], hwsim.DatasetPlatform, 0)
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = c.post(context.Background(), "/predict", req, &got[i])
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !got[i].Batched || got[i].Memoized {
			t.Fatalf("request %d = %+v, want a batched non-memoized answer", i, got[i])
		}
		if got[i].LatencyMS != want[i] {
			t.Fatalf("request %d: batched %v != solo %v (must be bit-identical)", i, got[i].LatencyMS, want[i])
		}
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.PredictBatches != 1 || st.PredictBatchedRequests != n || st.PredictBatchWidthMax != n {
		t.Fatalf("stats = %d batches / %d batched requests / width max %d, want 1 / %d / %d",
			st.PredictBatches, st.PredictBatchedRequests, st.PredictBatchWidthMax, n, n)
	}

	// The flush memoized every result: a repeat request answers from the
	// memo without waiting for (or opening) another window.
	req, err := encodeRequest(graphs[0], hwsim.DatasetPlatform, 0)
	if err != nil {
		t.Fatal(err)
	}
	var r PredictResponse
	if err := c.post(context.Background(), "/predict", req, &r); err != nil {
		t.Fatal(err)
	}
	if !r.Memoized || r.LatencyMS != want[0] {
		t.Fatalf("repeat = %+v, want memoized %v", r, want[0])
	}
	if st2, _ := c.Stats(); st2.PredictBatches != 1 {
		t.Fatalf("memo hit opened a window: %d batches", st2.PredictBatches)
	}
}

// TestPredictBatchingWindowExpiry covers the timer flush: a lone request
// must not wait for peers that never come.
func TestPredictBatchingWindowExpiry(t *testing.T) {
	pred := trainTinyPredictor(t)
	c, srv := startServer(t, pred)
	srv.ConfigurePredictBatching(10*time.Millisecond, 64)
	g := variantGraphs(t, 1, 42)[0]

	want, err := pred.Predict(g, hwsim.DatasetPlatform)
	if err != nil {
		t.Fatal(err)
	}
	req, err := encodeRequest(g, hwsim.DatasetPlatform, 0)
	if err != nil {
		t.Fatal(err)
	}
	var r PredictResponse
	if err := c.post(context.Background(), "/predict", req, &r); err != nil {
		t.Fatal(err)
	}
	if !r.Batched || r.LatencyMS != want {
		t.Fatalf("r = %+v, want batched %v via the expired window", r, want)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.PredictBatches != 1 || st.PredictBatchWidthMax != 1 {
		t.Fatalf("stats = %d batches / width max %d, want 1 / 1", st.PredictBatches, st.PredictBatchWidthMax)
	}
}

// TestPredictBatchingCancelledCaller: a caller that gives up mid-window gets
// its error immediately, the flush still runs, and the computed result lands
// in the memo for the next caller — a departed client never wedges or
// poisons a batch. The window runs on a manual clock: the caller cancels only
// once its request sits in an open window, and the window closes only when
// the clock is moved past it.
func TestPredictBatchingCancelledCaller(t *testing.T) {
	pred := trainTinyPredictor(t)
	c, srv := startServer(t, pred)
	clk := newManualClock()
	srv.clock = clk
	srv.ConfigurePredictBatching(150*time.Millisecond, 64)
	g := variantGraphs(t, 1, 43)[0]

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := c.PredictContext(ctx, g, hwsim.DatasetPlatform, 0)
		errc <- err
	}()
	clk.waitArmed(t, 1) // the window opened with this request in it
	if n := openWindowJobs(srv.batch); n != 1 {
		t.Fatalf("%d requests in open windows, want 1", n)
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("want an error from the abandoned request")
	}

	// The window still flushes on its timer and memoizes the result.
	clk.advance(150 * time.Millisecond)
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.PredictBatches != 1 {
		t.Fatal("abandoned window never flushed")
	}
	req, err := encodeRequest(g, hwsim.DatasetPlatform, 0)
	if err != nil {
		t.Fatal(err)
	}
	var r PredictResponse
	if err := c.post(context.Background(), "/predict", req, &r); err != nil {
		t.Fatal(err)
	}
	if !r.Memoized {
		t.Fatalf("r = %+v, want the abandoned batch's memoized result", r)
	}
}

// TestPredictBatchingErrorFansOut: a batch-level failure (no head for the
// platform) comes back to the caller as a 400, same as the solo path.
func TestPredictBatchingErrorFansOut(t *testing.T) {
	pred := trainTinyPredictor(t)
	c, srv := startServer(t, pred)
	srv.ConfigurePredictBatching(10*time.Millisecond, 64)
	g := variantGraphs(t, 1, 44)[0]

	_, err := c.Predict(g, "gpu-P4-trt7.1-int8", 0)
	if err == nil || !strings.Contains(err.Error(), "status 400") {
		t.Fatalf("err = %v, want a 400 for the untrained platform", err)
	}
}

// openWindowJobs counts the requests waiting in b's open gather windows.
func openWindowJobs(b *batcher) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, gb := range b.pending {
		n += len(gb.jobs)
	}
	return n
}
