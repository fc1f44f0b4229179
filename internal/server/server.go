// Package server exposes NNLQP's unified latency query and prediction
// interface over HTTP with JSON payloads — the reproduction's analogue of
// the paper's Flask serving layer (§7). Endpoints:
//
//	POST /query    {model: <base64 binary>, platform, batch_size} -> {latency_ms, cache_hit, coalesced, pipeline_seconds}
//	POST /predict  {model: <base64 binary>, platform, batch_size} -> {latency_ms}
//	GET  /platforms                                               -> {platforms: [...]}
//	GET  /stats                                                   -> cache, concurrency and database counters
//	GET  /healthz                                                 -> ok
//
// The serving path is deadline-aware: every request runs under a
// per-request timeout (RequestTimeout), the request context is plumbed into
// the query system so a disconnected client releases its device wait, and
// Serve's stop function drains in-flight requests via http.Server.Shutdown
// before closing.
package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"nnlqp/internal/core"
	"nnlqp/internal/db"
	"nnlqp/internal/graphhash"
	"nnlqp/internal/hwsim"
	"nnlqp/internal/onnx"
	"nnlqp/internal/query"
	"nnlqp/internal/serve"
	"nnlqp/internal/slo"
	"nnlqp/internal/wire"
)

// Default serving timeouts, overridable on Server before Serve is called.
const (
	DefaultRequestTimeout = 60 * time.Second
	DefaultShutdownGrace  = 10 * time.Second
)

// Server is the serving core: the HTTP handlers, the predictor engine, the
// prediction memo and the /predict batcher, composed over a StorageRole and a
// MeasurementRole (roles.go). The live predictor is owned by a serve.Engine:
// one atomically swappable handle shared by /predict, the gather-window
// batcher, and the query path's degradation fallback, so a hot-swap is
// observed by every consumer at once.
type Server struct {
	storage *StorageRole
	meas    *MeasurementRole
	sys     *query.System
	memo    *core.PredictMemo
	engine  *serve.Engine
	mu      sync.RWMutex
	batch   *batcher   // nil = /predict answers each request individually
	admit   *Admission // nil = admission control off
	clock   clock      // the batcher window's time source

	retrainMu sync.Mutex
	retrainer *serve.Retrainer
	scheduler *serve.Scheduler

	// RequestTimeout bounds each /query and /predict request (device wait
	// included); 0 disables the per-request deadline.
	RequestTimeout time.Duration
	// ShutdownGrace bounds how long the stop function returned by Serve
	// waits for in-flight requests to drain before force-closing.
	ShutdownGrace time.Duration
}

// NewCore composes a serving core over explicitly constructed roles — the
// composition-root constructor. The optional predictor (nil disables /predict
// until one arrives via SetPredictor or the retrainer) doubles as the query
// path's degradation fallback: when the farm cannot measure before the
// deadline, /query answers with the prediction, marked "degraded". The engine
// is installed as the fallback even while empty — a not-Ready engine degrades
// nothing (query.ReadyReporter), so behaviour matches having no fallback.
func NewCore(storage *StorageRole, meas *MeasurementRole, pred *core.Predictor) *Server {
	s := &Server{
		storage:        storage,
		meas:           meas,
		sys:            query.NewWith(storage.Store(), meas.Farm(), storage.Cache()),
		memo:           core.NewPredictMemo(0),
		engine:         serve.NewEngine(pred),
		clock:          wallClock{},
		RequestTimeout: DefaultRequestTimeout,
		ShutdownGrace:  DefaultShutdownGrace,
	}
	s.sys.SetFallback(s.engine)
	return s
}

// New builds a single-process server over a store, a device farm, and an
// optional trained predictor — the all-roles-in-one wiring every PR before
// the role split used, kept signature- and behaviour-compatible. It is
// exactly NewCore over default-constructed roles.
func New(store *db.Store, farm query.Measurer, pred *core.Predictor) *Server {
	return NewCore(NewStorageRole(store, 0, 0), NewMeasurementRole(farm), pred)
}

// System exposes the underlying query system (to tune resilience, install a
// custom fallback, or read stats directly).
func (s *Server) System() *query.System { return s.sys }

// SetPredictor installs (or, with nil, uninstalls) the predictor served by
// /predict and used as the query path's degradation fallback. The swap is a
// single atomic publish through the engine: /predict, the batcher, /stats
// and a concurrent degraded /query all flip from the old predictor to the
// new one at the same instant — there is no window pairing the old fallback
// with the new generation.
func (s *Server) SetPredictor(p *core.Predictor) {
	s.engine.Swap(p, core.Metrics{}, "manual")
}

// EnableRetraining starts the background retrainer: the server watches the
// evolving database and hot-swaps improved predictors without a restart.
// Call before Serve; the returned stop function (also wired into Serve's
// stop) halts the loop.
func (s *Server) EnableRetraining(cfg serve.RetrainConfig) *serve.Retrainer {
	s.retrainMu.Lock()
	defer s.retrainMu.Unlock()
	if s.retrainer != nil {
		return s.retrainer
	}
	s.retrainer = serve.NewRetrainer(s.storage.Store(), s.engine, cfg)
	s.retrainer.Start()
	return s.retrainer
}

// EnableActiveMeasurement starts the active-measurement scheduler: idle farm
// capacity is spent measuring the graphs the predictor is most uncertain
// about, feeding the evolving database where the retrainer picks them up.
// idle may be nil — the measurement role's own idle signal is used when it
// has one, else scheduling is ungated.
func (s *Server) EnableActiveMeasurement(cfg serve.ActiveConfig, idle serve.IdleReporter) *serve.Scheduler {
	s.retrainMu.Lock()
	defer s.retrainMu.Unlock()
	if s.scheduler != nil {
		return s.scheduler
	}
	if idle == nil {
		idle = s.meas.Idle()
	}
	s.scheduler = serve.NewScheduler(s.sys, s.engine, idle, cfg)
	s.scheduler.Start()
	return s.scheduler
}

// backgroundLoops returns the currently running retrainer/scheduler (either
// may be nil).
func (s *Server) backgroundLoops() (*serve.Retrainer, *serve.Scheduler) {
	s.retrainMu.Lock()
	defer s.retrainMu.Unlock()
	return s.retrainer, s.scheduler
}

// ConfigureAdmission turns on token-bucket admission control for /query and
// /predict: sustained traffic above cfg.Rate requests/s (after a burst
// allowance) waits in a bounded deadline-urgency queue or is shed with
// 429 + Retry-After. cfg.Rate <= 0 turns admission off. Call before Serve;
// the swap is not synchronized against in-flight requests.
func (s *Server) ConfigureAdmission(cfg AdmissionConfig) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cfg.Rate <= 0 {
		s.admit = nil
		return
	}
	s.admit = NewAdmission(cfg)
}

// Admission exposes the admission controller (nil when off); tests and the
// stats path read its counters.
func (s *Server) Admission() *Admission {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.admit
}

// ConfigurePredictBatching turns on (or off) the /predict gather window:
// concurrent requests for one platform are held for up to window, then
// answered from a single packed forward pass; a window flushes early once it
// gathers maxWidth requests. window <= 0 disables batching. Requests that
// hit the prediction memo never wait for a window.
func (s *Server) ConfigurePredictBatching(window time.Duration, maxWidth int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if window <= 0 {
		s.batch = nil
		return
	}
	s.batch = newBatcher(window, maxWidth, s.memo, s.clock)
}

// Request is the JSON body of /query and /predict.
type Request struct {
	// Model is the base64-encoded binary model (onnx.EncodeBinary).
	Model string `json:"model"`
	// Platform is the target platform name.
	Platform string `json:"platform"`
	// BatchSize optionally overrides the model's declared batch size.
	BatchSize int `json:"batch_size,omitempty"`
}

// QueryResponse is the JSON body returned by /query.
type QueryResponse struct {
	LatencyMS float64 `json:"latency_ms"`
	CacheHit  bool    `json:"cache_hit"`
	Coalesced bool    `json:"coalesced,omitempty"`
	// Degraded marks a fallback prediction served because the farm could
	// not measure before the deadline; Provenance is one of "cache",
	// "measured", "coalesced", "degraded".
	Degraded   bool   `json:"degraded,omitempty"`
	Provenance string `json:"provenance"`
	// Tier names the cache tier that served a hit: "l1" (in-process) or
	// "l2" (durable database). Empty for measured/coalesced/degraded.
	Tier string `json:"tier,omitempty"`
	// StoreFailed marks a measured answer whose durable write failed: the
	// value is real (and served) but was not persisted or cached, so a
	// repeat query re-measures.
	StoreFailed bool `json:"store_failed,omitempty"`
	// Generation is the predictor generation behind a degraded answer
	// (0 otherwise).
	Generation      uint64  `json:"generation,omitempty"`
	PipelineSeconds float64 `json:"pipeline_seconds"`
}

// PredictResponse is the JSON body returned by /predict.
type PredictResponse struct {
	LatencyMS float64 `json:"latency_ms"`
	// Memoized marks an answer served from the prediction memo (same graph,
	// platform and predictor generation as an earlier request).
	Memoized bool `json:"memoized,omitempty"`
	// Batched marks an answer computed by a gathered multi-request forward
	// pass (see ConfigurePredictBatching). The value is bit-identical to the
	// single-request answer; the flag only records how it was produced.
	Batched bool `json:"batched,omitempty"`
	// Generation is the predictor generation that computed (or memoized)
	// this answer. A request that joined a gather window opened before a
	// hot-swap reports the window's generation — the weights that actually
	// produced the value — not the generation live at response time.
	Generation uint64 `json:"generation"`
}

// StatsResponse is the JSON body returned by /stats.
type StatsResponse struct {
	Queries   int `json:"queries"`
	Hits      int `json:"hits"`
	Misses    int `json:"misses"`
	Coalesced int `json:"coalesced"`
	// Failures counts queries that returned an error to their caller;
	// Queries = Hits + Misses + Coalesced + Failures. StoreFailures counts
	// measured answers whose durable write failed (served anyway, reported
	// here) — a storage-health signal, not a query-outcome bucket.
	// DuplicateMeasurements counts measurements whose row another measurement
	// of the same graph had already stored (0 while coalescing holds).
	Failures              int     `json:"failures"`
	StoreFailures         int     `json:"store_failures"`
	DuplicateMeasurements int     `json:"duplicate_measurements"`
	InFlight              int     `json:"in_flight"`
	HitRatio              float64 `json:"hit_ratio"`
	DeviceWaitSec         float64 `json:"device_wait_seconds"`
	// Fault-tolerance counters: measurement retries, speculative hedges
	// (and how many hedges won), device quarantine events, devices
	// currently benched, and answers served degraded from the predictor.
	Retries        int64 `json:"retries"`
	Hedges         int64 `json:"hedges"`
	HedgeWins      int64 `json:"hedge_wins"`
	Quarantines    int64 `json:"quarantines"`
	QuarantinedNow int   `json:"quarantined_now"`
	Degraded       int   `json:"degraded"`
	// L1 serving-cache tier counters (the database is the L2 tier) and the
	// prediction-memo counters; predictor_generation is the live
	// predictor's generation (0 when none is loaded).
	L1Hits              int    `json:"l1_hits"`
	L1NegHits           uint64 `json:"l1_negative_hits"`
	L1Evictions         uint64 `json:"l1_evictions"`
	L1Size              int    `json:"l1_size"`
	L1Negatives         int    `json:"l1_negatives"`
	MemoHits            uint64 `json:"memo_hits"`
	MemoSize            int    `json:"memo_size"`
	PredictorGeneration uint64 `json:"predictor_generation"`
	// Engine counters: whether a predictor is loaded, how many hot-swaps
	// (and validation rejects) the engine has seen, and the holdout metrics
	// the live predictor shipped with (zero for manually loaded predictors).
	PredictorReady       bool    `json:"predictor_ready"`
	PredictorSwaps       int64   `json:"predictor_swaps"`
	PredictorSwapRejects int64   `json:"predictor_swap_rejects"`
	PredictorHoldoutMAPE float64 `json:"predictor_holdout_mape,omitempty"`
	// Online-loop counters, zero unless -retrain / -active-measure are on.
	RetrainRuns        int64   `json:"retrain_runs,omitempty"`
	RetrainHoldoutMAPE float64 `json:"retrain_holdout_mape,omitempty"`
	ActiveTicks        int64   `json:"active_measure_ticks,omitempty"`
	ActiveMeasured     int64   `json:"active_measured,omitempty"`
	// Admission-control counters, all zero (and admit_by_class absent) when
	// admission is off. The invariant admit_requests = admitted + shed is
	// exact; queued counts requests that waited in the urgency queue, and
	// admit_queue_now is the current queue depth.
	AdmitRequests int64                         `json:"admit_requests"`
	Admitted      int64                         `json:"admitted"`
	Shed          int64                         `json:"shed"`
	Queued        int64                         `json:"queued"`
	AdmitQueueNow int                           `json:"admit_queue_now"`
	AdmitByClass  map[slo.Class]AdmitClassStats `json:"admit_by_class,omitempty"`
	// Gather-window counters for /predict batching: packed forward passes
	// run, requests answered through one, and the widest batch flushed.
	// All zero when batching is off.
	PredictBatches         int64 `json:"predict_batches"`
	PredictBatchedRequests int64 `json:"predict_batched_requests"`
	PredictBatchWidthMax   int64 `json:"predict_batch_width_max"`
	Models                 int   `json:"models"`
	Platforms              int   `json:"platforms"`
	Latencies              int   `json:"latencies"`
	StorageBytes           int64 `json:"storage_bytes"`
	// Storage-engine counters (zero for in-memory stores).
	DBCommitBatches  int64   `json:"db_commit_batches"`
	DBCommitRecords  int64   `json:"db_commit_records"`
	DBFsyncs         int64   `json:"db_fsyncs"`
	DBWALBytes       int64   `json:"db_wal_bytes"`
	DBWALRecords     int64   `json:"db_wal_records"`
	DBCheckpoints    int64   `json:"db_checkpoints"`
	DBSnapshotAgeSec float64 `json:"db_snapshot_age_seconds"` // -1 = never checkpointed
}

// CheckpointResponse is the JSON body returned by /checkpoint.
type CheckpointResponse struct {
	Checkpoints    int64   `json:"db_checkpoints"`
	WALBytes       int64   `json:"db_wal_bytes"`
	WALRecords     int64   `json:"db_wal_records"`
	SnapshotAgeSec float64 `json:"db_snapshot_age_seconds"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.withTimeout(s.withAdmission(s.handleQuery)))
	mux.HandleFunc("/predict", s.withTimeout(s.withAdmission(s.handlePredict)))
	mux.HandleFunc("/platforms", s.handlePlatforms)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/engine", s.handleEngine)
	mux.HandleFunc("/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// withTimeout bounds a handler with the per-request deadline so slow device
// waits cannot pin a connection forever.
func (s *Server) withTimeout(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(w, r)
	}
}

// withAdmission tags the request context with its SLO class (from the
// X-NNLQP-Class header; untagged traffic is best-effort — the class then
// orders both the admission queue here and the farm's device queue below)
// and, when admission control is on, gates the request through the token
// bucket before the body is even read: shedding is cheap by construction.
// Shed requests answer 429 with a Retry-After hint.
func (s *Server) withAdmission(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		class := slo.FromHeader(r.Header)
		r = r.WithContext(slo.WithContext(r.Context(), class))
		if a := s.Admission(); a != nil {
			if err := a.Admit(r.Context(), class); err != nil {
				var shed *ShedError
				if errors.As(err, &shed) {
					w.Header().Set("Retry-After", fmt.Sprintf("%d", int(shed.RetryAfter.Seconds())))
					writeErr(w, http.StatusTooManyRequests, err)
					return
				}
				writeErr(w, statusForError(err), err)
				return
			}
		}
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// statusForError classifies a query/predict failure: problems with the
// request (bad model, unknown platform, op the platform cannot run) are the
// caller's to fix (400); an expired deadline is 504; everything else —
// farm, database, internal — is a 500 the caller may retry.
func statusForError(err error) int {
	var unsupported *hwsim.UnsupportedOpError
	switch {
	case errors.Is(err, hwsim.ErrUnknownPlatform) || errors.As(err, &unsupported):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled), errors.Is(err, hwsim.ErrAllQuarantined):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// decodeModel parses and validates the request's base64 model, decoding it
// into *raw (grown when too small, so the caller can pool it). A batch_size
// override rewrites the leading input dimension and re-runs shape inference
// so an inconsistent override is rejected here (400) rather than surfacing
// as a farm-side failure — and so downstream FLOPs/MAC stats and the
// simulator always see shapes for the batch actually being served.
func decodeModel(model []byte, batchSize int, raw *[]byte) (*onnx.Graph, error) {
	n := base64.StdEncoding.DecodedLen(len(model))
	if cap(*raw) < n {
		*raw = make([]byte, n)
	}
	n, err := base64.StdEncoding.Decode((*raw)[:n], model)
	if err != nil {
		return nil, fmt.Errorf("model is not valid base64: %w", err)
	}
	g, err := onnx.DecodeBinary((*raw)[:n])
	if err != nil {
		return nil, fmt.Errorf("model does not decode: %w", err)
	}
	if batchSize > 0 {
		for i := range g.Inputs {
			if len(g.Inputs[i].Shape) > 0 {
				g.Inputs[i].Shape[0] = batchSize
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if batchSize > 0 {
		if _, err := g.InferShapes(); err != nil {
			return nil, fmt.Errorf("batch_size %d is inconsistent with the model: %w", batchSize, err)
		}
	}
	return g, nil
}

// maxBodyBytes caps a /query or /predict body: ~800× the zoo's ~10 KB mean,
// far above any real model and far below what could exhaust the process.
// The whole body is read before it is parsed, so every body over the cap is
// a 413, whatever its first bytes hold.
const maxBodyBytes = 8 << 20

// maxPooledBytes is the largest buffer requestBufs returns to the pool: one
// rare multi-megabyte body must not stay pinned for the life of the process.
const maxPooledBytes = 1 << 20

// requestBufs holds one request's body and its base64-decoded model. Both
// return to the pool as soon as DecodeBinary has run: it copies its input
// into a string of its own, so no graph refers to either buffer.
type requestBufs struct{ body, raw []byte }

var bufPool = sync.Pool{New: func() any { return new(requestBufs) }}

func (b *requestBufs) release() {
	if cap(b.body) > maxPooledBytes {
		b.body = nil
	}
	if cap(b.raw) > maxPooledBytes {
		b.raw = nil
	}
	bufPool.Put(b)
}

// readBody reads the whole of r's body, at most maxBodyBytes, into buf[:0].
// A Content-Length within the cap sizes the buffer up front; a larger claim
// is never allocated, the cap refuses it once that many bytes have arrived.
func readBody(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, error) {
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes && int(n) >= cap(buf) {
		buf = make([]byte, 0, n+1) // +1: the read that sees EOF needs room
	}
	rd := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// readRequest reads, parses and decodes one /query or /predict body and
// returns its platform and graph. The canonical body (wire.ScanRequest) is
// parsed in place; any other body goes through encoding/json exactly as it
// always has, so it decodes, and fails, with the same result and message.
func readRequest(w http.ResponseWriter, r *http.Request) (string, *onnx.Graph, bool) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return "", nil, false
	}
	bufs := bufPool.Get().(*requestBufs)
	defer bufs.release()
	body, err := readBody(w, r, bufs.body)
	bufs.body = body
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeErr(w, status, fmt.Errorf("bad json: %w", err))
		return "", nil, false
	}
	model, platform, batch, ok := wire.ScanRequest(body)
	if !ok {
		// Decoder, not Unmarshal: bytes after the first value are ignored.
		var req Request
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad json: %w", err))
			return "", nil, false
		}
		model, platform, batch = []byte(req.Model), req.Platform, req.BatchSize
	}
	if platform == "" {
		writeErr(w, http.StatusBadRequest, errors.New("platform required"))
		return "", nil, false
	}
	g, err := decodeModel(model, batch, &bufs.raw)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return "", nil, false
	}
	return platform, g, true
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	platform, g, ok := readRequest(w, r)
	if !ok {
		return
	}
	res, err := s.sys.Query(r.Context(), g, platform)
	if err != nil {
		writeErr(w, statusForError(err), err)
		return
	}
	writeJSON(w, http.StatusOK, QueryResponse{
		LatencyMS: res.LatencyMS, CacheHit: res.Hit, Coalesced: res.Coalesced,
		Degraded: res.Degraded, Provenance: res.Provenance, Tier: res.Tier,
		StoreFailed:     res.StoreFailed,
		Generation:      res.Generation,
		PipelineSeconds: res.SimSeconds,
	})
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	platform, g, ok := readRequest(w, r)
	if !ok {
		return
	}
	// One engine snapshot yields a consistent (predictor, generation) pair:
	// a hot-swap racing this request either lands entirely before the load
	// (the request is served by the new weights under the new generation) or
	// entirely after it (old weights, old generation — whose memo entries
	// the swap just orphaned).
	pred, gen := s.engine.Snapshot()
	s.mu.RLock()
	bt := s.batch
	s.mu.RUnlock()
	if pred == nil {
		writeErr(w, http.StatusServiceUnavailable, errors.New("no trained predictor loaded"))
		return
	}
	// The memo key is (graph hash, platform, predictor generation). The
	// hash folds in the input shapes, so a batch_size override is already a
	// different key; the generation must be read before predicting so a
	// fine-tune racing this request lands the result under the old (and
	// therefore unreachable) generation rather than masquerading as fresh.
	key, err := graphhash.GraphKey(g)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if v, ok := s.memo.Get(uint64(key), platform, gen); ok {
		writeJSON(w, http.StatusOK, PredictResponse{LatencyMS: v, Memoized: true, Generation: gen})
		return
	}
	if bt != nil {
		// Extraction failures are request-shaped, so they 400 here — before
		// the request joins a window — and can never fail a whole batch.
		gf, err := pred.Extract(g)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		j := bt.enqueue(pred, gen, platform, uint64(key), gf)
		select {
		case out := <-j.done:
			if out.err != nil {
				writeErr(w, http.StatusBadRequest, out.err)
				return
			}
			// out.gen is the generation the window was opened under — the
			// weights that actually computed the value, which may predate a
			// swap that landed while this request waited.
			writeJSON(w, http.StatusOK, PredictResponse{LatencyMS: out.v, Batched: true, Generation: out.gen})
		case <-r.Context().Done():
			// The flush delivers into the job's buffered channel regardless;
			// this caller just stops waiting for it.
			writeErr(w, statusForError(r.Context().Err()), r.Context().Err())
		}
		return
	}
	v, err := pred.Predict(g, platform)
	if err != nil {
		// Predictor errors are request-shaped (unknown platform head, graph
		// the feature extractor rejects) — the caller must change the
		// request, so 400.
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.memo.Put(uint64(key), platform, gen, v)
	writeJSON(w, http.StatusOK, PredictResponse{LatencyMS: v, Generation: gen})
}

func (s *Server) handlePlatforms(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	writeJSON(w, http.StatusOK, map[string][]string{"platforms": hwsim.PlatformNames()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	st := s.sys.Stats()
	m, p, l := s.storage.Counts()
	es := s.storage.EngineStats()
	ms := s.memo.Stats()
	eng := s.engine.Stats()
	s.mu.RLock()
	bs := s.batch.stats()
	admit := s.admit
	s.mu.RUnlock()
	var adm AdmissionStats
	var admByClass map[slo.Class]AdmitClassStats
	if admit != nil {
		adm = admit.Stats()
		admByClass = adm.ByClass
	}
	var retrainRuns int64
	var retrainMAPE float64
	var activeTicks, activeMeasured int64
	if rt, sc := s.backgroundLoops(); rt != nil || sc != nil {
		if rt != nil {
			rst := rt.Status()
			retrainRuns, retrainMAPE = rst.Runs, rst.LastHoldoutMAPE
		}
		if sc != nil {
			ast := sc.Status()
			activeTicks, activeMeasured = ast.Ticks, ast.Measured
		}
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		Queries: st.Queries, Hits: st.Hits, Misses: st.Misses,
		Coalesced: st.Coalesced, Failures: st.Failures,
		StoreFailures:         st.StoreFailures,
		DuplicateMeasurements: st.DuplicateMeasurements,
		InFlight:              st.InFlight, HitRatio: st.HitRatio(),
		DeviceWaitSec: st.DeviceWaitSec,
		Retries:       st.Retries, Hedges: st.Hedges, HedgeWins: st.HedgeWins,
		Quarantines: st.Quarantines, QuarantinedNow: st.QuarantinedNow,
		Degraded: st.Degraded,
		L1Hits:   st.L1Hits, L1NegHits: st.L1NegHits, L1Evictions: st.L1Evictions,
		L1Size: st.L1Size, L1Negatives: st.L1Negatives,
		MemoHits: ms.Hits, MemoSize: ms.Size, PredictorGeneration: eng.Generation,
		PredictorReady:         eng.Ready,
		PredictorSwaps:         eng.Swaps,
		PredictorSwapRejects:   eng.Rejects,
		PredictorHoldoutMAPE:   eng.HoldoutMAPE,
		RetrainRuns:            retrainRuns,
		RetrainHoldoutMAPE:     retrainMAPE,
		ActiveTicks:            activeTicks,
		ActiveMeasured:         activeMeasured,
		AdmitRequests:          adm.Requests,
		Admitted:               adm.Admitted,
		Shed:                   adm.Shed,
		Queued:                 adm.Queued,
		AdmitQueueNow:          adm.QueuedNow,
		AdmitByClass:           admByClass,
		PredictBatches:         bs.Batches,
		PredictBatchedRequests: bs.Requests,
		PredictBatchWidthMax:   bs.WidthMax,
		Models:                 m, Platforms: p, Latencies: l,
		StorageBytes:    s.storage.StorageBytes(),
		DBCommitBatches: es.CommitBatches, DBCommitRecords: es.CommitRecords,
		DBFsyncs: es.Fsyncs, DBWALBytes: es.WALBytes, DBWALRecords: es.WALRecords,
		DBCheckpoints: es.Checkpoints, DBSnapshotAgeSec: es.SnapshotAgeSec,
	})
}

// EngineResponse is the JSON body returned by /engine: the live engine
// state, its swap history, and the retrainer/scheduler status when the
// online loops are running.
type EngineResponse struct {
	Engine  serve.EngineStats    `json:"engine"`
	History []serve.SwapRecord   `json:"history"`
	Retrain *serve.RetrainStatus `json:"retrain,omitempty"`
	Active  *serve.ActiveStatus  `json:"active,omitempty"`
}

// handleEngine is the observability endpoint for the evolving-database
// loop: predictor generation, swap history, retrain triggers, and active
// measurement progress in one GET.
func (s *Server) handleEngine(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	resp := EngineResponse{Engine: s.engine.Stats(), History: s.engine.History()}
	if rt, sc := s.backgroundLoops(); rt != nil || sc != nil {
		if rt != nil {
			st := rt.Status()
			resp.Retrain = &st
		}
		if sc != nil {
			st := sc.Status()
			resp.Active = &st
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCheckpoint is the admin endpoint forcing a storage-engine
// checkpoint: snapshot the database, truncate the WAL. POST only; a no-op
// (but still 200) for in-memory stores.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	if err := s.storage.Checkpoint(); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	es := s.storage.EngineStats()
	writeJSON(w, http.StatusOK, CheckpointResponse{
		Checkpoints: es.Checkpoints, WALBytes: es.WALBytes,
		WALRecords: es.WALRecords, SnapshotAgeSec: es.SnapshotAgeSec,
	})
}

// Serve starts an HTTP listener on addr (use "127.0.0.1:0" for ephemeral)
// and returns the bound address and a stop func. The stop func drains
// in-flight requests for up to ShutdownGrace before force-closing; the
// listener stops accepting new connections immediately.
func (s *Server) Serve(addr string) (string, func() error, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	writeTimeout := 2 * s.RequestTimeout
	if writeTimeout <= 0 {
		writeTimeout = 5 * time.Minute
	}
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadTimeout:       30 * time.Second,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	go func() { _ = srv.Serve(lis) }()
	stop := func() error {
		// Halt the online loops first so no retrain or active measurement
		// starts while requests drain.
		if rt, sc := s.backgroundLoops(); rt != nil || sc != nil {
			if sc != nil {
				sc.Stop()
			}
			if rt != nil {
				rt.Stop()
			}
		}
		grace := s.ShutdownGrace
		if grace <= 0 {
			grace = DefaultShutdownGrace
		}
		ctx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return srv.Close()
		}
		return nil
	}
	return lis.Addr().String(), stop, nil
}
