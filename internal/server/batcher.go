package server

import (
	"sync"
	"sync/atomic"
	"time"

	"nnlqp/internal/core"
	"nnlqp/internal/feats"
)

// predictOut is one request's share of a gathered batch result. gen is the
// generation of the predictor that ran the packed pass — the window's
// captured generation, which a hot-swap landing mid-wait does not change.
type predictOut struct {
	v   float64
	gen uint64
	err error
}

// predictJob is one /predict request waiting in a gather window. The done
// channel has capacity 1 so a flush never blocks on a caller that gave up
// (cancelled context, closed connection) — the result is simply dropped.
type predictJob struct {
	gf   *feats.GraphFeatures
	key  uint64
	done chan predictOut
}

// gatherBatch is the open window for one platform. The predictor and its
// generation are captured when the window opens so a fine-tune landing
// mid-window cannot split one packed forward across two parameter sets; the
// memo entries written at flush carry that generation, making them
// unreachable (never stale) if the predictor has since advanced.
type gatherBatch struct {
	pred  *core.Predictor
	gen   uint64
	jobs  []*predictJob
	timer stopper
}

// batcher gathers concurrent /predict requests per platform for up to
// `window`, then evaluates the whole group in one packed PredictSamplesInto
// pass. A window flushes early the moment it reaches `max` jobs, so the
// window bounds added latency while the width bound caps the packed matrix.
type batcher struct {
	window time.Duration
	max    int
	memo   *core.PredictMemo
	clock  clock

	mu      sync.Mutex
	pending map[string]*gatherBatch

	batches  atomic.Int64 // packed forward passes run
	requests atomic.Int64 // requests answered through a gathered batch
	widthMax atomic.Int64 // widest batch flushed so far
}

func newBatcher(window time.Duration, max int, memo *core.PredictMemo, clk clock) *batcher {
	if max < 1 {
		max = 1
	}
	return &batcher{window: window, max: max, memo: memo, clock: clk, pending: make(map[string]*gatherBatch)}
}

// enqueue joins (or opens) the gather window for platform and returns the
// job whose done channel delivers the batched answer. The caller has already
// checked the memo and extracted features, so everything that can fail per
// request has failed before a job ever joins a batch.
func (b *batcher) enqueue(pred *core.Predictor, gen uint64, platform string, key uint64, gf *feats.GraphFeatures) *predictJob {
	j := &predictJob{gf: gf, key: key, done: make(chan predictOut, 1)}
	b.mu.Lock()
	gb := b.pending[platform]
	if gb != nil && gb.pred != pred {
		// Predictor swapped mid-window: flush the old window as-is rather
		// than mixing two parameter sets in one packed pass.
		delete(b.pending, platform)
		gb.timer.Stop()
		go b.run(platform, gb)
		gb = nil
	}
	if gb == nil {
		gb = &gatherBatch{pred: pred, gen: gen}
		b.pending[platform] = gb
		gb.timer = b.clock.AfterFunc(b.window, func() { b.flushExpired(platform, gb) })
	}
	gb.jobs = append(gb.jobs, j)
	full := len(gb.jobs) >= b.max
	if full {
		delete(b.pending, platform)
		gb.timer.Stop()
	}
	b.mu.Unlock()
	if full {
		b.run(platform, gb)
	}
	return j
}

// flushExpired is the timer path; it must tolerate losing the race with a
// width-triggered flush that already claimed (or replaced) the window.
func (b *batcher) flushExpired(platform string, gb *gatherBatch) {
	b.mu.Lock()
	if b.pending[platform] != gb {
		b.mu.Unlock()
		return
	}
	delete(b.pending, platform)
	b.mu.Unlock()
	b.run(platform, gb)
}

// run evaluates one gathered window in a single packed forward pass and
// fans results (and memo entries) back out to the waiting handlers.
func (b *batcher) run(platform string, gb *gatherBatch) {
	gfs := make([]*feats.GraphFeatures, len(gb.jobs))
	for i, j := range gb.jobs {
		gfs[i] = j.gf
	}
	vals, err := gb.pred.PredictSamplesInto(make([]float64, 0, len(gfs)), gfs, platform)
	b.batches.Add(1)
	b.requests.Add(int64(len(gb.jobs)))
	for {
		w := b.widthMax.Load()
		if int64(len(gb.jobs)) <= w || b.widthMax.CompareAndSwap(w, int64(len(gb.jobs))) {
			break
		}
	}
	for i, j := range gb.jobs {
		if err != nil {
			j.done <- predictOut{err: err, gen: gb.gen}
			continue
		}
		b.memo.Put(j.key, platform, gb.gen, vals[i])
		j.done <- predictOut{v: vals[i], gen: gb.gen}
	}
}

// batcherStats is a snapshot of the gather-window counters.
type batcherStats struct {
	Batches  int64
	Requests int64
	WidthMax int64
}

func (b *batcher) stats() batcherStats {
	if b == nil {
		return batcherStats{}
	}
	return batcherStats{
		Batches:  b.batches.Load(),
		Requests: b.requests.Load(),
		WidthMax: b.widthMax.Load(),
	}
}
