// Package cluster turns N single-process nnlqp-servers into one serving
// endpoint: a front-end router owns the replica membership (health probes,
// EWMA eject/readmit) and fans /query and /predict across the replicas under
// a pluggable routing policy — round-robin, least-loaded, or cache-affinity
// rendezvous hashing on the graph hash. Failed dispatches retry on the
// policy's next choice under a bounded token-bucket budget; /stats aggregates
// the replica counters and /engine and /cluster expose the per-replica view.
//
// The package deliberately speaks to replicas over their public HTTP API, and
// its only internal import, internal/breaker, imports nothing but the
// standard library, so internal/server's client can import it for the
// /cluster response types without an import cycle.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nnlqp/internal/breaker"
	"nnlqp/internal/wire"
)

// Config tunes the router. Zero values select the defaults.
type Config struct {
	// Policy orders replicas per request (default round-robin).
	Policy Policy
	// MaxAttempts bounds how many replicas one request may try (default 3).
	MaxAttempts int
	// AttemptTimeout bounds each replica attempt (default 30s). The request's
	// own context still applies on top.
	AttemptTimeout time.Duration
	// RetryBudget / RetryRefill shape the shared token bucket: every retry
	// spends one token, every successful first attempt refunds RetryRefill
	// tokens (defaults 16 / 0.25). An empty bucket fails fast to the last
	// response instead of amplifying load on a melting cluster.
	RetryBudget float64
	// RetryRefill is the per-success refund (default 0.25).
	RetryRefill float64
	// ProbeInterval is the health-probe cadence (default 2s); probes also
	// refresh each replica's reported in-flight gauge for least-loaded.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (default ProbeInterval).
	ProbeTimeout time.Duration
	// Health configures replica ejection (zero fields take defaults).
	Health HealthPolicy
}

func (c Config) withDefaults() Config {
	if c.Policy == nil {
		c.Policy = NewRoundRobin()
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 30 * time.Second
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 16
	}
	if c.RetryRefill <= 0 {
		c.RetryRefill = 0.25
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.ProbeInterval
	}
	c.Health = healthDefaults(c.Health)
	return c
}

// StatusResponse is the JSON body returned by /cluster.
type StatusResponse struct {
	Policy        string         `json:"policy"`
	Requests      int64          `json:"requests"`
	Coalesced     int64          `json:"coalesced"`
	Retries       int64          `json:"retries"`
	RetriesDenied int64          `json:"retries_denied"`
	NoHealthy     int64          `json:"no_healthy"`
	Exhausted     int64          `json:"exhausted"`
	Shed          int64          `json:"shed"`
	Probes        int64          `json:"probes"`
	RetryTokens   float64        `json:"retry_tokens"`
	Members       []MemberStatus `json:"members"`
}

// Router is the cluster front end. It serves the same /query and /predict
// wire API as a replica — clients cannot tell a router from a single server —
// plus the cluster-wide observability endpoints.
type Router struct {
	cfg     Config
	members *Membership
	httpc   *http.Client

	requests      atomic.Int64
	coalesced     atomic.Int64
	retries       atomic.Int64
	retriesDenied atomic.Int64
	noHealthy     atomic.Int64
	exhausted     atomic.Int64
	shed          atomic.Int64
	probes        atomic.Int64

	budget *breaker.Budget

	// flights coalesces byte-identical concurrent proxy requests: one leader
	// dispatches to a replica, followers share its response. This is the
	// router-side complement of the replica's own single-flight layer — N
	// clients racing the same cold key through the router cost the cluster
	// one replica round trip, not N.
	flightMu sync.Mutex
	flights  map[string]*routerFlight

	stopMu         sync.Mutex
	stopCh, doneCh chan struct{}
}

// New builds a router with an empty membership; register replicas with
// AddReplica (or Members().Add) before or while serving.
func New(cfg Config) *Router {
	cfg = cfg.withDefaults()
	return &Router{
		cfg:     cfg,
		members: NewMembership(cfg.Health),
		httpc:   &http.Client{},
		budget:  breaker.NewBudget(cfg.RetryBudget, cfg.RetryRefill),
		flights: make(map[string]*routerFlight),
	}
}

// Members exposes the membership for registration and inspection.
func (rt *Router) Members() *Membership { return rt.members }

// AddReplica registers a replica by name and base address ("host:port" or a
// full "http://host:port" URL).
func (rt *Router) AddReplica(name, addr string) *Member {
	m := NewMember(name, addr)
	rt.members.Add(m)
	return m
}

// baseURL normalizes a member address to an http base URL.
func baseURL(addr string) string {
	if len(addr) > 7 && (addr[:7] == "http://" || addr[:8] == "https://") {
		return addr
	}
	return "http://" + addr
}

// requestKey derives the routing key from the request fields the cache keys
// on: FNV-64a over (model base64, platform, batch). Byte-identical models
// hash identically, so under cache-affinity every repeat of a graph lands on
// the replica whose L1 already holds it. The model is hashed where it lies,
// as the body's bytes or as a decoded string; both give the same key.
func requestKey[M string | []byte](model M, platform string, batch int) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(model); i++ {
		h = (h ^ uint64(model[i])) * prime
	}
	h *= prime // the 0 separator: h ^ 0 == h
	for i := 0; i < len(platform); i++ {
		h = (h ^ uint64(platform[i])) * prime
	}
	h *= prime
	var num [20]byte
	for _, c := range strconv.AppendInt(num[:0], int64(batch), 10) {
		h = (h ^ uint64(c)) * prime
	}
	return h
}

// bodyKey is requestKey of a /query or /predict body. The canonical body is
// scanned in place; any other goes through encoding/json, and a malformed
// one routes anywhere (the replica 400s it).
func bodyKey(body []byte) uint64 {
	if model, platform, batch, ok := wire.ScanRequest(body); ok {
		return requestKey(model, platform, batch)
	}
	var req proxyRequest
	_ = json.Unmarshal(body, &req)
	return requestKey(req.Model, req.Platform, req.BatchSize)
}

// proxyRequest is the subset of the replica request body the router needs
// for key derivation when the body is not canonical; the body bytes are
// forwarded untouched.
type proxyRequest struct {
	Model     string `json:"model"`
	Platform  string `json:"platform"`
	BatchSize int    `json:"batch_size"`
}

// attemptResult is one replica attempt's outcome.
type attemptResult struct {
	status int
	header http.Header
	body   []byte
}

// forwardHeaderPrefix selects which client request headers the router passes
// through to replicas. net/http canonicalizes "X-NNLQP-Class" and friends to
// this form, so a prefix match on the canonical spelling covers the whole
// X-NNLQP-* namespace — including extension headers this router version has
// never heard of. Dropping unknown ones would silently strip, e.g., the SLO
// class a replica's admission controller keys on.
const forwardHeaderPrefix = "X-Nnlqp-"

// forward POSTs body to one member under the attempt timeout, passing
// X-NNLQP-* request headers through untouched.
func (rt *Router) forward(ctx context.Context, m *Member, path string, header http.Header, body []byte) (*attemptResult, error) {
	actx, cancel := context.WithTimeout(ctx, rt.cfg.AttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, baseURL(m.addr)+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, vs := range header {
		if strings.HasPrefix(k, forwardHeaderPrefix) {
			req.Header[k] = vs
		}
	}
	m.requests.Add(1)
	m.inflight.Add(1)
	defer m.inflight.Add(-1)
	resp, err := rt.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &attemptResult{status: resp.StatusCode, header: resp.Header, body: data}, nil
}

// retryable reports whether a replica response should fail over to the next
// member, and whether the failure is the replica's fault for health scoring.
// Network errors and 500/502 blame the replica; 503 retries without blame
// (a replica with no predictor loaded answers /predict 503 — it is healthy,
// just not useful for this request). 2xx, 4xx and 504 are final: the caller's
// request or deadline, not the replica.
func retryable(res *attemptResult, err error) (retry, blame bool) {
	if err != nil {
		return true, true
	}
	switch res.status {
	case http.StatusInternalServerError, http.StatusBadGateway:
		return true, true
	case http.StatusServiceUnavailable:
		return true, false
	}
	return false, false
}

// routerFlight is one in-flight proxied request shared by coalesced callers.
// Exactly one of res/perr is set once done closes.
type routerFlight struct {
	done chan struct{}
	res  *attemptResult
	perr *proxyError
}

// proxyError is a dispatch outcome the router itself must answer (no replica
// response to relay).
type proxyError struct {
	status int
	msg    string
}

// flightKey identifies byte-identical concurrent proxy requests: same
// endpoint, same forwarded X-NNLQP-* header set (two requests differing in
// SLO class must not share an admission outcome), same body bytes. Keying on
// the full bytes rather than a hash rules out collisions handing a caller
// someone else's answer.
func flightKey(path string, header http.Header, body []byte) string {
	var sb strings.Builder
	sb.Grow(len(path) + len(body) + 16)
	sb.WriteString(path)
	var keys []string
	for k := range header {
		if strings.HasPrefix(k, forwardHeaderPrefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		sb.WriteByte(0)
		sb.WriteString(k)
		for _, v := range header[k] {
			sb.WriteByte(1)
			sb.WriteString(v)
		}
	}
	sb.WriteByte(0)
	sb.Write(body)
	return sb.String()
}

// maxBodyBytes is the replicas' own body cap (internal/server): the router
// buffers a body before it can forward it, so it refuses what they would.
const maxBodyBytes = 8 << 20

// handleProxy routes one /query or /predict request. Byte-identical
// concurrent requests coalesce: the first becomes the leader and runs the
// dispatch loop; the rest wait on its flight and share the outcome (counted
// in /cluster as coalesced). The flight retires before its result is
// published, so a request arriving after the leader finished starts fresh —
// by then the replica's own cache holds the answer.
func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	rt.requests.Add(1)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeErr(w, status, "read body: "+err.Error())
		return
	}
	key := bodyKey(body)

	fkey := flightKey(r.URL.Path, r.Header, body)
	rt.flightMu.Lock()
	if fl, ok := rt.flights[fkey]; ok {
		rt.flightMu.Unlock()
		rt.coalesced.Add(1)
		select {
		case <-r.Context().Done():
			// This waiter's own deadline, not the leader's outcome.
			writeErr(w, http.StatusGatewayTimeout, r.Context().Err().Error())
		case <-fl.done:
			rt.finish(w, fl.res, fl.perr)
		}
		return
	}
	fl := &routerFlight{done: make(chan struct{})}
	rt.flights[fkey] = fl
	rt.flightMu.Unlock()

	res, perr := rt.dispatch(r.Context(), r.URL.Path, r.Header, key, body)
	fl.res, fl.perr = res, perr
	rt.flightMu.Lock()
	delete(rt.flights, fkey)
	rt.flightMu.Unlock()
	close(fl.done)
	rt.finish(w, res, perr)
}

// dispatch runs one request's attempt loop: order the healthy set by policy,
// try members in order with retry-on-next under the token budget, and return
// either the replica response to relay or the router's own error answer.
func (rt *Router) dispatch(ctx context.Context, path string, header http.Header, key uint64, body []byte) (*attemptResult, *proxyError) {
	healthy := rt.members.Healthy()
	if len(healthy) == 0 {
		rt.noHealthy.Add(1)
		return nil, &proxyError{http.StatusServiceUnavailable, "no healthy replicas"}
	}
	order := rt.cfg.Policy.Order(key, healthy)
	attempts := rt.cfg.MaxAttempts
	if attempts > len(order) {
		attempts = len(order)
	}

	var last *attemptResult
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			if !rt.budget.Spend() {
				rt.retriesDenied.Add(1)
				break
			}
			rt.retries.Add(1)
		}
		m := order[i]
		res, err := rt.forward(ctx, m, path, header, body)
		if ctx.Err() != nil {
			// The client went away (or its deadline expired): not the
			// replica's fault, and no point trying the next one.
			return nil, &proxyError{http.StatusGatewayTimeout, ctx.Err().Error()}
		}
		retry, blame := retryable(res, err)
		if blame {
			m.failures.Add(1)
			m.reportResult(false)
		} else {
			m.reportResult(true)
		}
		if !retry {
			if i == 0 {
				rt.budget.Refund()
			}
			return res, nil
		}
		last, lastErr = res, err
	}
	rt.exhausted.Add(1)
	if last != nil {
		return last, nil
	}
	return nil, &proxyError{http.StatusBadGateway, fmt.Sprintf("all replicas failed: %v", lastErr)}
}

// finish writes one dispatch outcome to one caller (leader or follower).
func (rt *Router) finish(w http.ResponseWriter, res *attemptResult, perr *proxyError) {
	if perr != nil {
		writeErr(w, perr.status, perr.msg)
		return
	}
	rt.relay(w, res)
}

// relay copies a replica response through to the client, preserving the
// headers admission control depends on (Retry-After on a 429 shed) and
// counting replica sheds the router passed along.
func (rt *Router) relay(w http.ResponseWriter, res *attemptResult) {
	if res.status == http.StatusTooManyRequests {
		rt.shed.Add(1)
	}
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := res.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// get fetches path from one member under the probe timeout.
func (rt *Router) get(m *Member, path string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL(m.addr)+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// probeOnce polls every member's /stats — healthy or ejected — folding the
// outcome into its health score (this is what readmits a recovered replica
// without gambling client traffic on it) and refreshing the in-flight gauge
// least-loaded routing reads.
func (rt *Router) probeOnce() {
	for _, m := range rt.members.Members() {
		rt.probes.Add(1)
		data, err := rt.get(m, "/stats")
		if err != nil {
			m.reportResult(false)
			continue
		}
		var st struct {
			InFlight int64 `json:"in_flight"`
		}
		if json.Unmarshal(data, &st) == nil {
			m.remoteInFlight.Store(st.InFlight)
		}
		m.reportResult(true)
		m.maybeReadmit(time.Now())
	}
}

// StartProber launches the background health-probe loop (Serve does this
// automatically); StopProber halts it.
func (rt *Router) StartProber() {
	rt.stopMu.Lock()
	defer rt.stopMu.Unlock()
	if rt.stopCh != nil {
		return
	}
	rt.stopCh = make(chan struct{})
	rt.doneCh = make(chan struct{})
	stop, done := rt.stopCh, rt.doneCh
	go func() {
		defer close(done)
		t := time.NewTicker(rt.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				rt.probeOnce()
			}
		}
	}()
}

// StopProber halts the background probe loop.
func (rt *Router) StopProber() {
	rt.stopMu.Lock()
	stop, done := rt.stopCh, rt.doneCh
	rt.stopCh, rt.doneCh = nil, nil
	rt.stopMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// maxKeys are replica /stats fields where the cluster-wide value is the max,
// not the sum: generations, high-water marks and ages.
var maxKeys = map[string]bool{
	"predictor_generation":    true,
	"predict_batch_width_max": true,
	"predictor_holdout_mape":  true,
	"retrain_holdout_mape":    true,
	"db_snapshot_age_seconds": true,
}

// mergeStats folds one replica's /stats JSON into the aggregate: numbers sum
// (or max, for maxKeys), booleans OR, and nested objects (admit_by_class)
// merge recursively under the same rules. Note database row counts sum too —
// the aggregate is the replicas' combined view, so replicas sharing one store
// count it once per replica.
func mergeStats(agg map[string]any, one map[string]any) {
	for k, v := range one {
		switch val := v.(type) {
		case float64:
			prev, _ := agg[k].(float64)
			if maxKeys[k] {
				if _, ok := agg[k]; !ok || val > prev {
					agg[k] = val
				}
			} else {
				agg[k] = prev + val
			}
		case bool:
			prev, _ := agg[k].(bool)
			agg[k] = prev || val
		case map[string]any:
			sub, ok := agg[k].(map[string]any)
			if !ok {
				sub = map[string]any{}
				agg[k] = sub
			}
			mergeStats(sub, val)
		default:
			if _, ok := agg[k]; !ok {
				agg[k] = v
			}
		}
	}
}

// handleStats aggregates /stats across the healthy replicas: counters sum,
// gauges in maxKeys take the max, hit_ratio is recomputed from the summed
// hits/queries, and "replicas" reports how many answered.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	agg := map[string]any{}
	replicas := 0
	for _, m := range rt.members.Healthy() {
		data, err := rt.get(m, "/stats")
		if err != nil {
			m.reportResult(false)
			continue
		}
		var one map[string]any
		if json.Unmarshal(data, &one) != nil {
			continue
		}
		mergeStats(agg, one)
		replicas++
	}
	if q, _ := agg["queries"].(float64); q > 0 {
		h, _ := agg["hits"].(float64)
		agg["hit_ratio"] = h / q
	}
	agg["replicas"] = replicas
	writeJSON(w, http.StatusOK, agg)
}

// handleEngine returns each healthy replica's /engine response keyed by
// member name — predictor generations and swap histories are per-replica
// state, so they are presented side by side rather than merged.
func (rt *Router) handleEngine(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	out := map[string]json.RawMessage{}
	for _, m := range rt.members.Healthy() {
		data, err := rt.get(m, "/engine")
		if err != nil {
			out[m.name] = mustJSON(map[string]string{"error": err.Error()})
			continue
		}
		out[m.name] = json.RawMessage(data)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleCheckpoint fans the checkpoint request out to every healthy replica
// and reports each one's response (or error) by member name.
func (rt *Router) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	out := map[string]json.RawMessage{}
	for _, m := range rt.members.Healthy() {
		ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.AttemptTimeout)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL(m.addr)+"/checkpoint", nil)
		if err == nil {
			var resp *http.Response
			if resp, err = rt.httpc.Do(req); err == nil {
				data, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr == nil && resp.StatusCode == http.StatusOK {
					out[m.name] = json.RawMessage(data)
					cancel()
					continue
				}
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
		cancel()
		out[m.name] = mustJSON(map[string]string{"error": err.Error()})
	}
	writeJSON(w, http.StatusOK, out)
}

// handlePlatforms forwards to the first healthy replica (every replica
// serves the same simulator platform set).
func (rt *Router) handlePlatforms(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	for _, m := range rt.members.Healthy() {
		data, err := rt.get(m, "/platforms")
		if err != nil {
			m.reportResult(false)
			continue
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
		return
	}
	writeErr(w, http.StatusServiceUnavailable, "no healthy replicas")
}

// handleCluster reports the router's own state: policy, retry counters,
// token budget and the per-member health view.
func (rt *Router) handleCluster(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, rt.Status())
}

// Status snapshots the router for /cluster.
func (rt *Router) Status() StatusResponse {
	st := StatusResponse{
		Policy:        rt.cfg.Policy.Name(),
		Requests:      rt.requests.Load(),
		Coalesced:     rt.coalesced.Load(),
		Retries:       rt.retries.Load(),
		RetriesDenied: rt.retriesDenied.Load(),
		NoHealthy:     rt.noHealthy.Load(),
		Exhausted:     rt.exhausted.Load(),
		Shed:          rt.shed.Load(),
		Probes:        rt.probes.Load(),
		RetryTokens:   rt.budget.Tokens(),
	}
	for _, m := range rt.members.Members() {
		st.Members = append(st.Members, m.Status())
	}
	return st
}

func mustJSON(v any) json.RawMessage {
	data, err := json.Marshal(v)
	if err != nil {
		return json.RawMessage(`{}`)
	}
	return data
}

// Handler returns the router's HTTP mux: the replica-compatible serving
// endpoints plus the cluster view.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", rt.handleProxy)
	mux.HandleFunc("/predict", rt.handleProxy)
	mux.HandleFunc("/platforms", rt.handlePlatforms)
	mux.HandleFunc("/stats", rt.handleStats)
	mux.HandleFunc("/engine", rt.handleEngine)
	mux.HandleFunc("/checkpoint", rt.handleCheckpoint)
	mux.HandleFunc("/cluster", rt.handleCluster)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// Serve starts the router on addr (use "127.0.0.1:0" for ephemeral), starts
// the health prober, and returns the bound address and a stop func that
// halts the prober and drains in-flight requests.
func (rt *Router) Serve(addr string) (string, func() error, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	rt.StartProber()
	srv := &http.Server{
		Handler:           rt.Handler(),
		ReadTimeout:       30 * time.Second,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      2 * rt.cfg.AttemptTimeout * time.Duration(rt.cfg.MaxAttempts),
		IdleTimeout:       2 * time.Minute,
	}
	go func() { _ = srv.Serve(lis) }()
	stop := func() error {
		rt.StopProber()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return srv.Close()
		}
		return nil
	}
	return lis.Addr().String(), stop, nil
}
