//go:build linux

package main

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"nnlqp/internal/core"
	"nnlqp/internal/db"
	"nnlqp/internal/feats"
	"nnlqp/internal/graphhash"
	"nnlqp/internal/hwsim"
	"nnlqp/internal/onnx"
	"nnlqp/internal/query"
	"nnlqp/internal/server"
	"nnlqp/internal/tensor"
)

// span is one timed interval at a layer boundary. Spans of one request share
// Request; Parent is the index of the span that caused this one, -1 for a
// root. Times are nanoseconds since the tracer was created.
type span struct {
	Name    string `json:"name"`
	Request int    `json:"request"`
	Parent  int    `json:"parent"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Self    int64  `json:"self_ns"` // filled by finish: duration minus child coverage
}

// tracer collects spans in memory; they are written out when the run ends.
// Every method is a no-op on a nil tracer, so the replayed handler is the
// same code with tracing on and off.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(name string, request, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Request: request, Parent: parent,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	return len(t.spans) - 1
}

// end closes a span opened by add with a placeholder end time.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[i].End = int64(time.Since(t.epoch))
	t.mu.Unlock()
}

// stage times fn as a child span of parent.
func (t *tracer) stage(name string, request, parent int, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	t.add(name, request, parent, start, time.Now())
}

// selfTimes fills each span's Self: its duration minus the part of its
// interval that its direct children cover (overlapping children are counted
// once).
func selfTimes(spans []span) {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	for i := range spans {
		p := &spans[i]
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		var covered, reach int64 = 0, p.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, p.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		p.Self = (p.End - p.Start) - covered
	}
}

// durations groups span durations (µs) by name.
func durations(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e3)
	}
	return out
}

func (t *tracer) write(path string) error {
	selfTimes(t.spans)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// inproc is the server's request path assembled in this process from the
// layers' public constructors, wired the way cmd/nnlqp-server wires them, so
// the traced replay can put a span around each layer call. Spans inside the
// shipped binary are a later change.
type inproc struct {
	store *db.Store
	sys   *query.System
	farm  *hwsim.LocalFarm
	pred  *core.Predictor
	memo  *core.PredictMemo
}

func newInproc(e *env, dbDir string, cacheEntries int) (*inproc, error) {
	// Auto-checkpoints are off on the replay store so that WAL growth over
	// the traced sample can be read from one WAL generation.
	store, err := db.OpenStoreWith(dbDir, db.Options{Sync: db.SyncAlways, CheckpointWALBytes: -1, CheckpointRecords: -1})
	if err != nil {
		return nil, err
	}
	f, err := os.Open(e.predPath)
	if err != nil {
		store.Close()
		return nil, err
	}
	defer f.Close()
	pred, err := core.Load(f)
	if err != nil {
		store.Close()
		return nil, err
	}
	farm := &hwsim.LocalFarm{Farm: hwsim.NewDefaultFarm(2)}
	meas := server.NewMeasurementRole(farm)
	meas.EnableResilience(query.ResilienceConfig{
		MaxAttempts: 3, AttemptTimeout: 10 * time.Second, HedgePercentile: 0.95, RetryBudget: 16,
	})
	srv := server.NewCore(server.NewStorageRole(store, cacheEntries, 0), meas, pred)
	return &inproc{store: store, sys: srv.System(), farm: farm, pred: pred, memo: core.NewPredictMemo(0)}, nil
}

func (ip *inproc) close() error { return ip.store.Close() }

// decodeRequest is readRequest + decodeModel of internal/server, one span
// per step. The oracle uses it untraced to see the graph the server saw.
func decodeRequest(body []byte, tr *tracer, id, parent int) (*server.Request, *onnx.Graph, error) {
	var (
		req server.Request
		raw []byte
		g   *onnx.Graph
		err error
	)
	tr.stage("server.json_decode", id, parent, func() { err = json.Unmarshal(body, &req) })
	if err != nil {
		return nil, nil, err
	}
	tr.stage("server.base64_decode", id, parent, func() { raw, err = base64.StdEncoding.DecodeString(req.Model) })
	if err != nil {
		return nil, nil, err
	}
	tr.stage("onnx.decode", id, parent, func() { g, err = onnx.DecodeBinary(raw) })
	if err != nil {
		return nil, nil, err
	}
	if req.BatchSize > 0 {
		for i := range g.Inputs {
			if len(g.Inputs[i].Shape) > 0 {
				g.Inputs[i].Shape[0] = req.BatchSize
			}
		}
	}
	tr.stage("onnx.validate", id, parent, func() { err = g.Validate() })
	if err != nil {
		return nil, nil, err
	}
	if req.BatchSize > 0 {
		tr.stage("onnx.infer_shapes", id, parent, func() { _, err = g.InferShapes() })
		if err != nil {
			return nil, nil, err
		}
	}
	return &req, g, nil
}

// handle replays one request through the layers in handler order. Validate,
// GraphKey and feature extraction memoize on the graph, so calling each
// explicitly first gives it its own span and makes the repeat inside
// Query/Predict free, as it is on the second call in the real handler.
func (ip *inproc) handle(path string, body []byte, tr *tracer, id int) (wireResponse, error) {
	start := time.Now()
	root := tr.add("server", id, -1, start, start)
	req, g, err := decodeRequest(body, tr, id, root)
	if err != nil {
		return wireResponse{}, err
	}
	var key graphhash.Key
	tr.stage("graphhash.key", id, root, func() { key, err = graphhash.GraphKey(g) })
	if err != nil {
		return wireResponse{}, err
	}
	var out wireResponse
	var payload any
	switch path {
	case "/query":
		var res *query.Result
		qs := time.Now()
		res, err = ip.sys.Query(context.Background(), g, req.Platform)
		if err != nil {
			return wireResponse{}, err
		}
		name := "query.miss"
		if res.Hit {
			name = "query." + res.Tier + "_hit"
		}
		tr.add(name, id, root, qs, time.Now())
		out = wireResponse{LatencyMS: res.LatencyMS, CacheHit: res.Hit, Provenance: res.Provenance, Tier: res.Tier}
		payload = server.QueryResponse{
			LatencyMS: res.LatencyMS, CacheHit: res.Hit, Coalesced: res.Coalesced, Degraded: res.Degraded,
			Provenance: res.Provenance, Tier: res.Tier, StoreFailed: res.StoreFailed,
			Generation: res.Generation, PipelineSeconds: res.SimSeconds,
		}
	case "/predict":
		gen := ip.pred.Generation()
		var v float64
		var hit bool
		tr.stage("core.memo_get", id, root, func() { v, hit = ip.memo.Get(uint64(key), req.Platform, gen) })
		if !hit {
			tr.stage("feats.extract", id, root, func() { _, err = ip.pred.Extract(g) })
			if err != nil {
				return wireResponse{}, err
			}
			tr.stage("core.predict", id, root, func() { v, err = ip.pred.Predict(g, req.Platform) })
			if err != nil {
				return wireResponse{}, err
			}
			ip.memo.Put(uint64(key), req.Platform, gen, v)
		}
		out = wireResponse{LatencyMS: v, Memoized: hit}
		payload = server.PredictResponse{LatencyMS: v, Memoized: hit, Generation: gen}
	default:
		return wireResponse{}, fmt.Errorf("replay: unknown path %q", path)
	}
	tr.stage("server.response_encode", id, root, func() { _, err = json.Marshal(payload) })
	tr.end(root)
	return out, err
}

// clientStages times the client side of the protocol for one request body:
// binary-encode the graph, then base64 + JSON envelope.
func clientStages(body []byte, tr *tracer, id int) error {
	req, g, err := decodeRequest(body, nil, 0, 0)
	if err != nil {
		return err
	}
	g.InvalidateMemo()
	start := time.Now()
	root := tr.add("client", id, -1, start, start)
	var raw []byte
	tr.stage("onnx.encode", id, root, func() { raw, err = g.EncodeBinary() })
	if err != nil {
		return err
	}
	tr.stage("server.client_encode", id, root, func() {
		_, err = json.Marshal(server.Request{Model: base64.StdEncoding.EncodeToString(raw), Platform: req.Platform, BatchSize: req.BatchSize})
	})
	tr.end(root)
	return err
}

// probes are direct timed calls into single layers, on state identical to the
// replay's, for the calls that sit inside Query and Predict where the
// benchmark cannot put a span. Each slice holds µs per call.
type probes struct {
	cacheGet, pointRead                     []float64
	execute, measure, record                []float64
	predictCold, predictWarm, forward       []float64
	batch8PerGraph                          []float64
	matmulUS, maddsPerPredict, walPerRecord float64
}

// probeLayers runs the direct-call probes for the traced sample. A layer is
// probed only if the sample reached it: outcomes names how the replay
// answered each /query ("query.l1_hit", "query.l2_hit", "query.miss").
func probeLayers(e *env, ip *inproc, dir string, reqs []request, items []item, outcomes []string) (*probes, error) {
	pr := &probes{}
	p, err := hwsim.PlatformByName(platform)
	if err != nil {
		return nil, err
	}
	since := func(t time.Time) float64 { return us(time.Since(t)) }

	// A second store with the server's exact options takes the write probe,
	// so the replay's own store is not written twice.
	var wstore *db.Store
	var wplat uint64
	defer func() {
		if wstore != nil {
			wstore.Close()
		}
	}()
	var cold *core.Predictor // fresh copy: its plan cache has seen nothing
	var nodes []float64
	var batch []*onnx.Graph

	for i, r := range reqs {
		_, g, err := decodeRequest(items[r.item].body, nil, 0, 0)
		if err != nil {
			return nil, err
		}
		key, err := graphhash.GraphKey(g)
		if err != nil {
			return nil, err
		}
		switch outcomes[i] {
		case "query.l1_hit", "query.l2_hit", "query.miss":
			ck := query.CacheKey{Hash: key, Platform: platform, Batch: g.BatchSize()}
			t := time.Now()
			ip.sys.Cache().Get(ck)
			pr.cacheGet = append(pr.cacheGet, since(t))
		}
		switch outcomes[i] {
		case "query.l2_hit", "query.miss":
			pid, ok, err := ip.store.PlatformIDByName(platform)
			if err != nil || !ok {
				return nil, fmt.Errorf("probe: platform row missing (%v)", err)
			}
			t := time.Now()
			mid, _, err := ip.store.ModelIDByHash(key)
			if err == nil {
				_, _, err = ip.store.LatencyValue(mid, pid, g.BatchSize())
			}
			if err != nil {
				return nil, err
			}
			pr.pointRead = append(pr.pointRead, since(t))
		}
		if outcomes[i] == "query.miss" {
			t := time.Now()
			if _, err := p.Execute(g); err != nil {
				return nil, err
			}
			pr.execute = append(pr.execute, since(t))
			t = time.Now()
			m, err := ip.farm.Measure(context.Background(), platform, g, "bench")
			if err != nil {
				return nil, err
			}
			pr.measure = append(pr.measure, since(t))
			if wstore == nil {
				if wstore, err = db.OpenStoreWith(filepath.Join(dir, "probe-db"), db.Options{Sync: db.SyncAlways, CheckpointWALBytes: -1, CheckpointRecords: -1}); err != nil {
					return nil, err
				}
				rec, err := wstore.InsertPlatform(p.Name, p.Hardware, p.Software, p.DType)
				if err != nil {
					return nil, err
				}
				wplat = rec.ID
			}
			t = time.Now()
			if _, _, err := wstore.RecordMeasurement(g, wplat, db.LatencyRecord{
				BatchSize: g.BatchSize(), LatencyMS: m.LatencyMS, Runs: m.Runs, PeakMemBytes: m.PeakMemBytes,
			}); err != nil {
				return nil, err
			}
			pr.record = append(pr.record, since(t))
		}
		if r.path == "/predict" {
			if cold == nil {
				if cold, err = e.pred.Clone(); err != nil {
					return nil, err
				}
			}
			// The handler has hashed the graph by the time it predicts; the
			// cold call pays extraction, plan compile and the forward pass.
			g.InvalidateMemo()
			if _, err := graphhash.GraphKey(g); err != nil {
				return nil, err
			}
			t := time.Now()
			if _, err := cold.Predict(g, platform); err != nil {
				return nil, err
			}
			pr.predictCold = append(pr.predictCold, since(t))
			t = time.Now()
			if _, err := cold.Predict(g, platform); err != nil {
				return nil, err
			}
			warm := since(t)
			pr.predictWarm = append(pr.predictWarm, warm)
			// What a warm Predict does besides the forward pass: two memo
			// loads on the graph and the plan-cache lookup, timed through the
			// only public calls that reach them.
			t = time.Now()
			gf, err := feats.ExtractCached(g, cold.Config().ElemSize)
			if err != nil {
				return nil, err
			}
			if _, err := graphhash.GraphKey(g); err != nil {
				return nil, err
			}
			pr.forward = append(pr.forward, max(warm-since(t), 0))
			nodes = append(nodes, float64(gf.NumNodes()))
			if batch = append(batch, g); len(batch) == 8 {
				t = time.Now()
				if _, err := cold.PredictBatch(batch, platform); err != nil {
					return nil, err
				}
				pr.batch8PerGraph = append(pr.batch8PerGraph, since(t)/8)
				batch = batch[:0]
			}
		}
	}
	if wstore != nil && len(pr.record) > 0 {
		pr.walPerRecord = float64(wstore.EngineStats().WALBytes) / float64(len(pr.record))
	}
	if len(nodes) > 0 {
		n := int(median(nodes))
		cfg := e.pred.Config()
		pr.matmulUS = matmulProbe(n, 2*cfg.Hidden, cfg.Hidden)
		// Computed from shapes, not counted: the fused SAGE layers
		// ([x|mean(x)]·[W1;W2]) over n nodes plus the three-layer head.
		headIn := cfg.Hidden + feats.StaticDim
		pr.maddsPerPredict = float64(n*2*feats.FeatureDim*cfg.Hidden +
			(cfg.Depth-1)*n*2*cfg.Hidden*cfg.Hidden +
			headIn*cfg.HeadHidden + cfg.HeadHidden*cfg.HeadHidden + cfg.HeadHidden)
	}
	return pr, nil
}

// matmulProbe times one MatMulInto of an n×k by k×m product of dense values,
// median of 201 calls.
func matmulProbe(n, k, m int) float64 {
	a, b, out := tensor.NewMatrix(n, k), tensor.NewMatrix(k, m), tensor.NewMatrix(n, m)
	for i := range a.Data {
		a.Data[i] = 1 + float64(i%7)/8
	}
	for i := range b.Data {
		b.Data[i] = 1 - float64(i%5)/8
	}
	times := make([]float64, 201)
	for i := range times {
		t := time.Now()
		tensor.MatMulInto(out, a, b)
		times[i] = us(time.Since(t))
	}
	return median(times)
}
