// Package chaos is the fault-tolerance proving ground: it runs end-to-end
// query storms against a query.System whose device farm is injecting
// deterministic faults (crashes, hangs, slow starts, transient errors,
// latency jitter, severed RPC connections), and aggregates what came back.
//
// The harness asserts the system's degradation ladder instead of any single
// code path: every request must finish before its deadline and every answer
// must be a measurement, a cache/coalesced share of one, or an explicitly
// marked "degraded" predictor estimate — never a silent failure. The package
// holds only tests: this harness, and the suites in chaos_test.go and
// cluster_chaos_test.go (`make chaos`), which drive a storm per fault mode
// plus a mixed-fleet storm under -race with a pinned seed.
package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"nnlqp/internal/core"
	"nnlqp/internal/hwsim"
	"nnlqp/internal/models"
	"nnlqp/internal/onnx"
	"nnlqp/internal/query"
)

// Oracle is the degradation fallback used by chaos runs: it "predicts" with
// the simulator's noise-free latency model, so no predictor training is
// needed to exercise the degraded path.
type Oracle struct{}

// Predict returns the platform's true (noise-free) latency for g.
func (Oracle) Predict(g *onnx.Graph, platform string) (float64, error) {
	p, err := hwsim.PlatformByName(platform)
	if err != nil {
		return 0, err
	}
	return p.TrueLatencyMS(g)
}

// TinyPredictor trains a small real predictor covering the given platforms
// (default: the dataset platform). Different seeds give distinguishable
// weights, so storms that hot-swap a pool of them can check each answer
// against the generation it claims. Cheap: a dozen SqueezeNet variants per
// platform, five epochs.
func TinyPredictor(seed int64, platforms ...string) (*core.Predictor, error) {
	if len(platforms) == 0 {
		platforms = []string{hwsim.DatasetPlatform}
	}
	cfg := core.DefaultConfig()
	cfg.Hidden, cfg.Depth, cfg.HeadHidden, cfg.Epochs = 16, 2, 16, 5
	cfg.Seed = seed
	var samples []core.Sample
	for _, name := range platforms {
		p, err := hwsim.PlatformByName(name)
		if err != nil {
			return nil, err
		}
		for i := 0; i < 12; i++ {
			g := models.BuildSqueezeNet(models.BaseSqueezeNet(i + 1))
			ms, err := p.TrueLatencyMS(g)
			if err != nil {
				return nil, err
			}
			s, err := core.NewSample(g, ms, name)
			if err != nil {
				return nil, err
			}
			samples = append(samples, s)
		}
	}
	pred := core.New(cfg)
	if err := pred.Fit(samples); err != nil {
		return nil, err
	}
	return pred, nil
}

// Graphs builds n deterministic model variants drawn round-robin from the
// given families (batch 1), the storm's workload pool.
func Graphs(seed int64, n int, families ...string) ([]*onnx.Graph, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*onnx.Graph, 0, n)
	for i := 0; i < n; i++ {
		fam := families[i%len(families)]
		g, err := models.Variant(fam, rng, 1)
		if err != nil {
			return nil, err
		}
		g.Name = fmt.Sprintf("chaos-%s-%02d", fam, i)
		out = append(out, g)
	}
	return out, nil
}

// Storm is one end-to-end query storm: Requests queries spread over
// Concurrency workers, each bounded by Deadline, cycling through the
// (graph, platform) workload pool.
type Storm struct {
	Requests    int
	Concurrency int
	// Deadline bounds each request's context; a request not answered (or
	// degraded) by then counts as Failed.
	Deadline  time.Duration
	Platforms []string
	Graphs    []*onnx.Graph
}

// Outcome aggregates a storm's responses. Every request lands in exactly one
// bucket: Answered() + Failed == Requests.
type Outcome struct {
	// Measured counts fresh farm measurements; Cached database hits;
	// Coalesced shares of another request's in-flight measurement; Degraded
	// explicitly marked fallback-predictor answers (coalesced or not).
	Measured, Cached, Coalesced, Degraded int
	Failed                                int
	// MaxElapsed is the slowest request's wall-clock time: the deadline
	// guarantee is MaxElapsed <= Deadline + scheduling slack.
	MaxElapsed time.Duration
	// Errs keeps the first few failures for the test log.
	Errs []error
}

// Answered counts requests that produced a usable latency.
func (o Outcome) Answered() int {
	return o.Measured + o.Cached + o.Coalesced + o.Degraded
}

// String summarises the outcome for test logs.
func (o Outcome) String() string {
	return fmt.Sprintf("measured=%d cached=%d coalesced=%d degraded=%d failed=%d max=%s",
		o.Measured, o.Cached, o.Coalesced, o.Degraded, o.Failed, o.MaxElapsed.Round(time.Millisecond))
}

// Run fires the storm at sys and aggregates the responses.
func (st Storm) Run(sys *query.System) Outcome {
	var (
		mu   sync.Mutex
		out  Outcome
		next = make(chan int)
		wg   sync.WaitGroup
	)
	record := func(r *query.Result, err error, elapsed time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		if elapsed > out.MaxElapsed {
			out.MaxElapsed = elapsed
		}
		switch {
		case err != nil:
			out.Failed++
			if len(out.Errs) < 5 {
				out.Errs = append(out.Errs, err)
			}
		case r.Degraded:
			out.Degraded++
		case r.Hit:
			out.Cached++
		case r.Coalesced:
			out.Coalesced++
		default:
			out.Measured++
		}
	}
	for w := 0; w < st.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				g := st.Graphs[i%len(st.Graphs)]
				platform := st.Platforms[(i/len(st.Graphs))%len(st.Platforms)]
				ctx, cancel := context.WithTimeout(context.Background(), st.Deadline)
				start := time.Now()
				r, err := sys.Query(ctx, g, platform)
				record(r, err, time.Since(start))
				cancel()
			}
		}()
	}
	for i := 0; i < st.Requests; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}
