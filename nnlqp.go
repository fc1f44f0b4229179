// Package nnlqp is the public interface of the NNLQP reproduction: a
// multi-platform neural network latency query and prediction system with an
// evolving database (Liu et al., ICPP 2022).
//
// The unified invoking interface mirrors the paper's §7:
//
//	client, _ := nnlqp.New(nnlqp.Options{})
//	defer client.Close()
//
//	params := nnlqp.Params{
//	    ModelPath:    "model.nnlqp",
//	    BatchSize:    1,
//	    PlatformName: "cpu-openppl-fp32",
//	}
//	trueLatency, _ := client.Query(params)   // measure (or cache-hit)
//	predLatency, _ := client.Predict(params) // GNN predictor
//
// Query dispatches the model to the (simulated) device farm through the
// NNLQ pipeline — transform, acquire device, measure — unless the evolving
// database already holds the latency for this exact graph structure,
// platform and batch size. Predict runs the NNLP GraphSAGE predictor,
// which must first be trained (TrainPredictor) or loaded (LoadPredictor).
package nnlqp

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"nnlqp/internal/core"
	"nnlqp/internal/db"
	"nnlqp/internal/hwsim"
	"nnlqp/internal/query"
)

// Options configures a Client.
type Options struct {
	// DBDir is the directory of the evolving database; empty means
	// in-memory (no persistence).
	DBDir string
	// DevicesPerPlatform sizes the simulated device farm (default 2).
	DevicesPerPlatform int
	// FarmAddr, when set, uses a remote device farm served by
	// nnlqp-farm / hwsim.ServeFarm instead of an in-process one.
	FarmAddr string
	// PredictorPath, when set, loads a trained predictor at startup.
	PredictorPath string
	// CacheEntries sizes the in-process L1 serving cache in records (0 =
	// default); CacheNegativeTTL bounds how long a known-absent key skips
	// the database probe (0 = default).
	CacheEntries     int
	CacheNegativeTTL time.Duration
}

// Params mirror the paper's query interface: a model, a batch size, and a
// platform name like "gpu-T4-trt7.1-fp32".
type Params struct {
	// ModelPath points to a serialized model (binary .nnlqp or .json). It
	// is ignored when Model is set.
	ModelPath string
	// Model is an in-memory model (see LoadModel and the zoo builders).
	Model *Model
	// BatchSize overrides the model's declared batch size when > 0.
	BatchSize int
	// PlatformName is the target platform.
	PlatformName string
}

// Client is the NNLQP system handle.
type Client struct {
	store  *db.Store
	sys    *query.System
	remote *hwsim.RemoteFarm

	mu   sync.RWMutex
	pred *core.Predictor
}

// New opens (or creates) an NNLQP system.
func New(opts Options) (*Client, error) {
	store, err := db.OpenStore(opts.DBDir)
	if err != nil {
		return nil, err
	}
	c := &Client{store: store}
	var farm query.Measurer
	if opts.FarmAddr != "" {
		rf, err := hwsim.DialFarm(opts.FarmAddr)
		if err != nil {
			store.Close()
			return nil, fmt.Errorf("nnlqp: dial farm: %w", err)
		}
		c.remote = rf
		farm = rf
	} else {
		per := opts.DevicesPerPlatform
		if per <= 0 {
			per = 2
		}
		farm = &hwsim.LocalFarm{Farm: hwsim.NewDefaultFarm(per)}
	}
	c.sys = query.New(store, farm)
	if opts.CacheEntries != 0 || opts.CacheNegativeTTL != 0 {
		c.sys.ConfigureCache(opts.CacheEntries, opts.CacheNegativeTTL)
	}
	if opts.PredictorPath != "" {
		if err := c.LoadPredictor(opts.PredictorPath); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// Checkpoint compacts the evolving database: the engine writes a snapshot
// file and truncates its write-ahead log, bounding reopen (replay) cost.
// A no-op for in-memory databases.
func (c *Client) Checkpoint() error { return c.store.Checkpoint() }

// Close releases the database and any remote farm connection.
func (c *Client) Close() error {
	var first error
	if c.remote != nil {
		first = c.remote.Close()
	}
	if err := c.store.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// resolveModel loads/validates the model referenced by params and applies
// the batch-size override.
func (c *Client) resolveModel(params Params) (*Model, error) {
	m := params.Model
	if m == nil {
		if params.ModelPath == "" {
			return nil, fmt.Errorf("nnlqp: params need Model or ModelPath")
		}
		var err error
		m, err = LoadModel(params.ModelPath)
		if err != nil {
			return nil, err
		}
	}
	if params.BatchSize > 0 && params.BatchSize != m.BatchSize() {
		m = m.WithBatchSize(params.BatchSize)
	}
	return m, nil
}

// Query returns the true latency (ms) of the model on the platform,
// measuring on the device farm unless the database already has the record.
func (c *Client) Query(params Params) (float64, error) {
	r, err := c.QueryDetailed(params)
	if err != nil {
		return 0, err
	}
	return r.LatencyMS, nil
}

// QueryContext is Query bounded by a context: the deadline/cancellation
// propagates through the pipeline into the device wait, so an abandoned
// caller never leaks a device slot.
func (c *Client) QueryContext(ctx context.Context, params Params) (float64, error) {
	r, err := c.QueryDetailedContext(ctx, params)
	if err != nil {
		return 0, err
	}
	return r.LatencyMS, nil
}

// QueryResult carries the latency plus cache/bookkeeping details.
type QueryResult struct {
	LatencyMS float64
	// CacheHit reports whether the record came from the evolving database.
	CacheHit bool
	// Coalesced reports that a concurrent identical query's measurement was
	// shared instead of running a second pipeline.
	Coalesced bool
	// Tier names the cache tier that served a hit: "l1" (in-process memory)
	// or "l2" (the durable database). Empty when the farm measured.
	Tier string
	// PipelineSeconds is the virtual wall-clock cost this query would have
	// had on physical infrastructure (compile + upload + runs on a miss).
	PipelineSeconds float64
}

// QueryDetailed is Query with cache and cost details.
func (c *Client) QueryDetailed(params Params) (*QueryResult, error) {
	return c.QueryDetailedContext(context.Background(), params)
}

// QueryDetailedContext is QueryDetailed bounded by a context.
func (c *Client) QueryDetailedContext(ctx context.Context, params Params) (*QueryResult, error) {
	m, err := c.resolveModel(params)
	if err != nil {
		return nil, err
	}
	res, err := c.sys.Query(ctx, m.g, params.PlatformName)
	if err != nil {
		return nil, err
	}
	return &QueryResult{
		LatencyMS: res.LatencyMS, CacheHit: res.Hit, Coalesced: res.Coalesced,
		Tier: res.Tier, PipelineSeconds: res.SimSeconds,
	}, nil
}

// Predict returns the NNLP-predicted latency (ms) of the model on the
// platform. TrainPredictor or LoadPredictor must have run first.
func (c *Client) Predict(params Params) (float64, error) {
	m, err := c.resolveModel(params)
	if err != nil {
		return 0, err
	}
	c.mu.RLock()
	pred := c.pred
	c.mu.RUnlock()
	if pred == nil {
		return 0, fmt.Errorf("nnlqp: no trained predictor; call TrainPredictor or LoadPredictor")
	}
	return pred.Predict(m.g, params.PlatformName)
}

// PredictAll predicts the model's latency on every platform the predictor
// has a head for, from a single shared graph embedding.
func (c *Client) PredictAll(m *Model) (map[string]float64, error) {
	c.mu.RLock()
	pred := c.pred
	c.mu.RUnlock()
	if pred == nil {
		return nil, fmt.Errorf("nnlqp: no trained predictor; call TrainPredictor or LoadPredictor")
	}
	gf, err := pred.Extract(m.g)
	if err != nil {
		return nil, err
	}
	return pred.PredictAll(gf)
}

// Platforms lists every platform the system can measure on.
func (c *Client) Platforms() []string { return hwsim.PlatformNames() }

// PredictorPlatforms lists platforms the loaded predictor covers.
func (c *Client) PredictorPlatforms() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.pred == nil {
		return nil
	}
	return c.pred.Platforms()
}

// Stats reports cache behaviour and database cardinalities.
type Stats struct {
	Queries     int
	CacheHits   int
	CacheMisses int
	Coalesced   int
	// Failures counts queries that returned an error to the caller; every
	// query lands in exactly one bucket, so
	// Queries = CacheHits + CacheMisses + Coalesced + Failures.
	Failures int
	// StoreFailures counts measured answers whose durable write failed (the
	// answer was still served, uncached) — storage health, not an outcome
	// bucket.
	StoreFailures int
	HitRatio      float64
	// L1Hits counts hits answered from the in-process L1 tier (a subset of
	// CacheHits); L1Size/L1Evictions/L1NegativeHits describe the tier
	// itself. The remaining CacheHits came from the durable L2 database.
	L1Hits         int
	L1Size         int
	L1Evictions    uint64
	L1NegativeHits uint64
	Models         int
	PlatformRows   int
	Latencies      int
	StorageBytes   int64
	// PredictorGeneration identifies the loaded predictor's weights
	// (0 when no predictor is loaded); a retrain or reload bumps it.
	PredictorGeneration uint64
}

// Stats returns a snapshot of system statistics.
func (c *Client) Stats() Stats {
	qs := c.sys.Stats()
	m, p, l := c.store.Counts()
	var gen uint64
	c.mu.RLock()
	if c.pred != nil {
		gen = c.pred.Generation()
	}
	c.mu.RUnlock()
	return Stats{
		PredictorGeneration: gen,
		Queries:             qs.Queries, CacheHits: qs.Hits, CacheMisses: qs.Misses,
		Coalesced: qs.Coalesced, Failures: qs.Failures,
		StoreFailures: qs.StoreFailures,
		HitRatio:      qs.HitRatio(),
		L1Hits:        qs.L1Hits, L1Size: qs.L1Size,
		L1Evictions: qs.L1Evictions, L1NegativeHits: qs.L1NegHits,
		Models: m, PlatformRows: p, Latencies: l,
		StorageBytes: c.store.StorageBytes(),
	}
}

// SavePredictor writes the trained predictor to a file.
func (c *Client) SavePredictor(path string) error {
	c.mu.RLock()
	pred := c.pred
	c.mu.RUnlock()
	if pred == nil {
		return fmt.Errorf("nnlqp: no trained predictor to save")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pred.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadPredictor loads a predictor previously written by SavePredictor.
func (c *Client) LoadPredictor(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	pred, err := core.Load(f)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.pred = pred
	c.mu.Unlock()
	return nil
}

// Profile measures the model on the platform and returns a per-kernel
// latency breakdown (fusion family, fused in-graph latency, standalone
// latency), the reproduction's analogue of an inference-engine layer
// profile. The breakdown comes from the simulator directly and is not
// cached in the database.
func (c *Client) Profile(m *Model, platform string) (string, error) {
	p, err := hwsim.PlatformByName(platform)
	if err != nil {
		return "", err
	}
	prof, err := p.ProfileModel(m.g)
	if err != nil {
		return "", err
	}
	return prof.Render(20), nil
}
