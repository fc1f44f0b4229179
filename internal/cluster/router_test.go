package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Eject forces the member out of rotation for d, staging membership churn.
func (m *Member) Eject(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.health.ForceOpen(time.Now().Add(d))
	m.ejections++
}

// fakeReplica is a scriptable stand-in for one nnlqp-server replica.
type fakeReplica struct {
	srv     *httptest.Server
	queries atomic.Int64 // POSTs to /query or /predict received

	mu        sync.Mutex
	failWith  int           // non-zero: answer /query//predict with this status
	delay     time.Duration // sleep before answering /query//predict
	statsJSON string        // body served on /stats ("" = minimal valid stats)
	statsFail bool          // answer /stats with 500
}

func newFakeReplica(t *testing.T) *fakeReplica {
	t.Helper()
	f := &fakeReplica{}
	mux := http.NewServeMux()
	proxy := func(w http.ResponseWriter, r *http.Request) {
		f.queries.Add(1)
		f.mu.Lock()
		code, delay := f.failWith, f.delay
		f.mu.Unlock()
		if delay > 0 {
			time.Sleep(delay)
		}
		if code != 0 {
			w.WriteHeader(code)
			fmt.Fprintf(w, `{"error":"scripted %d"}`, code)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"latency_ms":1.5,"provenance":"cache"}`)
	}
	mux.HandleFunc("/query", proxy)
	mux.HandleFunc("/predict", proxy)
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		f.mu.Lock()
		body, fail := f.statsJSON, f.statsFail
		f.mu.Unlock()
		if fail {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		if body == "" {
			body = `{"queries":0,"in_flight":0}`
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, body)
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeReplica) addr() string { return strings.TrimPrefix(f.srv.URL, "http://") }

func (f *fakeReplica) setFail(code int) {
	f.mu.Lock()
	f.failWith = code
	f.mu.Unlock()
}

func (f *fakeReplica) setDelay(d time.Duration) {
	f.mu.Lock()
	f.delay = d
	f.mu.Unlock()
}

func (f *fakeReplica) setStats(body string, fail bool) {
	f.mu.Lock()
	f.statsJSON, f.statsFail = body, fail
	f.mu.Unlock()
}

// fastHealth ejects quickly and readmits quickly, for tests.
func fastHealth() HealthPolicy {
	return HealthPolicy{Threshold: 0.5, Base: 20 * time.Millisecond, Max: 80 * time.Millisecond}
}

func postQuery(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader([]byte(body)))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestRouterRetryOnNextThenEject: a replica answering 500 must be failed over
// transparently — every client request still succeeds — and its health score
// must eject it so later requests stop trying it first.
func TestRouterRetryOnNextThenEject(t *testing.T) {
	bad, good := newFakeReplica(t), newFakeReplica(t)
	bad.setFail(http.StatusInternalServerError)

	rt := New(Config{Policy: NewRoundRobin(), MaxAttempts: 2, Health: fastHealth()})
	rt.AddReplica("bad", bad.addr())
	rt.AddReplica("good", good.addr())
	h := rt.Handler()

	for i := 0; i < 12; i++ {
		if w := postQuery(t, h, `{"model":"AA==","platform":"p"}`); w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, w.Code, w.Body.String())
		}
	}
	st := rt.Status()
	if st.Retries == 0 {
		t.Fatalf("no retries recorded: %+v", st)
	}
	var badSt *MemberStatus
	for i := range st.Members {
		if st.Members[i].Name == "bad" {
			badSt = &st.Members[i]
		}
	}
	if badSt == nil || badSt.Failures == 0 || badSt.Ejections == 0 {
		t.Fatalf("bad replica never blamed/ejected: %+v", st.Members)
	}
	if good.queries.Load() != 12 {
		t.Fatalf("good replica served %d of 12", good.queries.Load())
	}
}

// TestRouter503RetriesWithoutBlame: a 503 (replica up, predictor not loaded)
// fails over to the next member but must not count against the replica's
// health — it is not broken, just not useful for this request.
func TestRouter503RetriesWithoutBlame(t *testing.T) {
	cold, warm := newFakeReplica(t), newFakeReplica(t)
	cold.setFail(http.StatusServiceUnavailable)

	rt := New(Config{Policy: NewRoundRobin(), MaxAttempts: 2, Health: fastHealth()})
	rt.AddReplica("cold", cold.addr())
	rt.AddReplica("warm", warm.addr())
	h := rt.Handler()

	for i := 0; i < 8; i++ {
		if w := postQuery(t, h, `{"model":"AA==","platform":"p"}`); w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, w.Code)
		}
	}
	for _, m := range rt.Status().Members {
		if m.Name == "cold" && (m.Ejections != 0 || m.Failures != 0) {
			t.Fatalf("503 blamed the replica: %+v", m)
		}
	}
}

// TestRouterRelaysClientErrors: a 400 from the replica is the caller's
// problem — no retry, no blame, body relayed verbatim.
func TestRouterRelaysClientErrors(t *testing.T) {
	r1, r2 := newFakeReplica(t), newFakeReplica(t)
	r1.setFail(http.StatusBadRequest)
	r2.setFail(http.StatusBadRequest)

	rt := New(Config{Policy: NewRoundRobin(), MaxAttempts: 2})
	rt.AddReplica("r1", r1.addr())
	rt.AddReplica("r2", r2.addr())

	w := postQuery(t, rt.Handler(), `{"model":"!!","platform":"p"}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", w.Code)
	}
	if got := r1.queries.Load() + r2.queries.Load(); got != 1 {
		t.Fatalf("400 was retried: %d dispatches", got)
	}
	if st := rt.Status(); st.Retries != 0 {
		t.Fatalf("retries = %d", st.Retries)
	}
}

// TestRouterNoHealthyReplicas: an empty (or fully ejected) membership answers
// 503 instead of hanging.
func TestRouterNoHealthyReplicas(t *testing.T) {
	rt := New(Config{})
	if w := postQuery(t, rt.Handler(), `{}`); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", w.Code)
	}
	only := newFakeReplica(t)
	m := rt.AddReplica("only", only.addr())
	m.Eject(time.Minute)
	if w := postQuery(t, rt.Handler(), `{}`); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status with ejected member = %d, want 503", w.Code)
	}
	if st := rt.Status(); st.NoHealthy != 2 {
		t.Fatalf("no_healthy = %d, want 2", st.NoHealthy)
	}
}

// TestLeastLoadedNeverRoutesToEjected floods the router from many goroutines
// (run under -race via `make race`) while one member sits ejected: the
// ejected replica must receive zero dispatches, and every request must still
// succeed on the survivors.
func TestLeastLoadedNeverRoutesToEjected(t *testing.T) {
	replicas := []*fakeReplica{newFakeReplica(t), newFakeReplica(t), newFakeReplica(t)}
	rt := New(Config{Policy: LeastLoaded{}, MaxAttempts: 3})
	var ejected *Member
	for i, f := range replicas {
		m := rt.AddReplica(fmt.Sprintf("replica-%d", i), f.addr())
		if i == 1 {
			ejected = m
		}
	}
	ejected.Eject(time.Minute)

	h := rt.Handler()
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				// Bodies are unique so no two requests coalesce — this test
				// counts dispatches, so every request must reach a replica.
				body := fmt.Sprintf(`{"model":"AA%02d=","platform":"p"}`, w*8+i)
				if rec := postQuery(t, h, body); rec.Code != http.StatusOK {
					select {
					case errs <- fmt.Sprintf("status %d", rec.Code):
					default:
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatalf("request failed: %s", e)
	}
	if n := replicas[1].queries.Load(); n != 0 {
		t.Fatalf("ejected replica received %d dispatches", n)
	}
	if total := replicas[0].queries.Load() + replicas[2].queries.Load(); total != 64 {
		t.Fatalf("survivors served %d of 64", total)
	}
}

// TestProbeEjectsAndReadmits drives the prober by hand: a replica failing its
// health probes is ejected; once it recovers and the backoff window expires,
// probes readmit it (probation, then full rehabilitation) without any client
// traffic being gambled on it.
func TestProbeEjectsAndReadmits(t *testing.T) {
	f := newFakeReplica(t)
	rt := New(Config{Health: fastHealth(), ProbeTimeout: time.Second})
	m := rt.AddReplica("flappy", f.addr())

	f.setStats("", true)
	for i := 0; i < 4 && len(rt.members.Healthy()) > 0; i++ {
		rt.probeOnce()
	}
	if len(rt.members.Healthy()) != 0 {
		t.Fatalf("failing probes never ejected the replica: %+v", m.Status())
	}
	if m.Status().Ejections == 0 {
		t.Fatal("no ejection recorded")
	}

	f.setStats(`{"queries":3,"in_flight":2}`, false)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		rt.probeOnce()
		st := m.Status()
		if st.Healthy && !st.Probation && st.Readmissions > 0 {
			if got := m.remoteInFlight.Load(); got != 2 {
				t.Fatalf("probe did not refresh in-flight gauge: %d", got)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("replica never readmitted: %+v", m.Status())
}

// TestStatsAggregation: /stats sums counters across replicas, takes the max
// for generation-like gauges, ORs booleans and recomputes hit_ratio from the
// summed totals.
func TestStatsAggregation(t *testing.T) {
	r1, r2 := newFakeReplica(t), newFakeReplica(t)
	r1.setStats(`{"queries":10,"hits":4,"l1_hits":3,"predictor_generation":2,"predictor_ready":false,"db_snapshot_age_seconds":5,"hit_ratio":0.4}`, false)
	r2.setStats(`{"queries":30,"hits":11,"l1_hits":9,"predictor_generation":7,"predictor_ready":true,"db_snapshot_age_seconds":1,"hit_ratio":0.366}`, false)

	rt := New(Config{ProbeTimeout: time.Second})
	rt.AddReplica("r1", r1.addr())
	rt.AddReplica("r2", r2.addr())

	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var agg map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &agg); err != nil {
		t.Fatal(err)
	}
	checks := map[string]float64{
		"queries":                 40,
		"hits":                    15,
		"l1_hits":                 12,
		"predictor_generation":    7,
		"db_snapshot_age_seconds": 5,
		"hit_ratio":               15.0 / 40,
		"replicas":                2,
	}
	for k, want := range checks {
		if got, _ := agg[k].(float64); got != want {
			t.Fatalf("%s = %v, want %v (agg %v)", k, agg[k], want, agg)
		}
	}
	if ready, _ := agg["predictor_ready"].(bool); !ready {
		t.Fatalf("predictor_ready = %v, want true", agg["predictor_ready"])
	}
}

// TestStatsAggregationNestedClasses: the per-class admission buckets merge
// like the top-level counters, so behind a router Σ per-class admitted/shed
// still equals the summed admitted/shed.
func TestStatsAggregationNestedClasses(t *testing.T) {
	r1, r2 := newFakeReplica(t), newFakeReplica(t)
	r1.setStats(`{"admitted":7,"shed":3,"admit_by_class":{"interactive":{"admitted":5,"shed":1},"batch":{"admitted":2,"shed":2}}}`, false)
	r2.setStats(`{"admitted":9,"shed":4,"admit_by_class":{"batch":{"admitted":1,"shed":0},"best-effort":{"admitted":8,"shed":4}}}`, false)

	rt := New(Config{ProbeTimeout: time.Second})
	rt.AddReplica("r1", r1.addr())
	rt.AddReplica("r2", r2.addr())
	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	var agg struct {
		Admitted int64                       `json:"admitted"`
		Shed     int64                       `json:"shed"`
		ByClass  map[string]map[string]int64 `json:"admit_by_class"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &agg); err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]int64{
		"interactive": {"admitted": 5, "shed": 1},
		"batch":       {"admitted": 3, "shed": 2},
		"best-effort": {"admitted": 8, "shed": 4},
	}
	var admitted, shed int64
	for class, w := range want {
		got := agg.ByClass[class]
		if got["admitted"] != w["admitted"] || got["shed"] != w["shed"] {
			t.Fatalf("class %s = %v, want %v (all %v)", class, got, w, agg.ByClass)
		}
	}
	for _, c := range agg.ByClass {
		admitted += c["admitted"]
		shed += c["shed"]
	}
	if agg.Admitted != 16 || agg.Shed != 7 || admitted != agg.Admitted || shed != agg.Shed {
		t.Fatalf("totals admitted/shed = %d/%d, Σ classes %d/%d, want 16/7 both",
			agg.Admitted, agg.Shed, admitted, shed)
	}
}

// TestClusterEndpoint: /cluster reports the policy and per-member view.
func TestClusterEndpoint(t *testing.T) {
	f := newFakeReplica(t)
	rt := New(Config{Policy: CacheAffinity{}})
	rt.AddReplica("solo", f.addr())
	postQuery(t, rt.Handler(), `{"model":"AA==","platform":"p"}`)

	req := httptest.NewRequest(http.MethodGet, "/cluster", nil)
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	var st StatusResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Policy != "affinity" || st.Requests != 1 || len(st.Members) != 1 {
		t.Fatalf("cluster status: %+v", st)
	}
	if st.Members[0].Name != "solo" || st.Members[0].Requests != 1 {
		t.Fatalf("member status: %+v", st.Members[0])
	}
}

// TestRetryBudgetExhaustionFailsFast: with an empty token bucket the router
// stops failing over and relays the last replica response instead of
// amplifying load on a melting cluster.
func TestRetryBudgetExhaustionFailsFast(t *testing.T) {
	bad, good := newFakeReplica(t), newFakeReplica(t)
	bad.setFail(http.StatusInternalServerError)

	// Budget 1 with a tiny refill: the first failover spends the only token.
	rt := New(Config{Policy: CacheAffinity{}, MaxAttempts: 2, RetryBudget: 1, RetryRefill: 1e-9, Health: HealthPolicy{Threshold: 1e-9}})
	rt.AddReplica("bad", bad.addr())
	rt.AddReplica("good", good.addr())

	// Find a key that affinity-routes to the bad replica so every request
	// needs a failover.
	body := ""
	for i := 0; i < 64; i++ {
		b := fmt.Sprintf(`{"model":"k%02d","platform":"p"}`, i)
		var pr proxyRequest
		_ = json.Unmarshal([]byte(b), &pr)
		healthy := rt.members.Healthy()
		if rt.cfg.Policy.Order(requestKey(pr.Model, pr.Platform, pr.BatchSize), healthy)[0].Name() == "bad" {
			body = b
			break
		}
	}
	if body == "" {
		t.Fatal("no key routed to the bad replica")
	}

	h := rt.Handler()
	if w := postQuery(t, h, body); w.Code != http.StatusOK {
		t.Fatalf("first request should fail over: %d", w.Code)
	}
	w := postQuery(t, h, body)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("budget-exhausted request = %d, want relayed 500", w.Code)
	}
	st := rt.Status()
	if st.RetriesDenied == 0 || st.Exhausted == 0 {
		t.Fatalf("budget counters: %+v", st)
	}
}

// TestRouterServeEndToEnd exercises the real listener path once: Serve binds,
// /healthz answers, /query proxies, stop drains.
func TestRouterServeEndToEnd(t *testing.T) {
	f := newFakeReplica(t)
	rt := New(Config{ProbeInterval: 10 * time.Millisecond})
	m := rt.AddReplica("solo", f.addr())
	addr, stop, err := rt.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	resp, err = http.Post("http://"+addr+"/query", "application/json",
		bytes.NewReader([]byte(`{"model":"AA==","platform":"p"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}

	// The background prober should refresh the member gauge on its own.
	f.setStats(`{"in_flight":4}`, false)
	deadline := time.Now().Add(3 * time.Second)
	for m.remoteInFlight.Load() != 4 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if m.remoteInFlight.Load() != 4 {
		t.Fatal("prober never refreshed the in-flight gauge")
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestRouterCoalescesIdenticalConcurrentRequests: N clients racing one
// byte-identical body through the router must cost the cluster a single
// replica dispatch — the leader's — with the other N-1 sharing its response
// and counted as coalesced in /cluster.
func TestRouterCoalescesIdenticalConcurrentRequests(t *testing.T) {
	f := newFakeReplica(t)
	f.setDelay(150 * time.Millisecond) // hold the leader in flight while followers pile on
	rt := New(Config{})
	rt.AddReplica("only", f.addr())
	h := rt.Handler()

	const n = 8
	var wg sync.WaitGroup
	codes := make([]int, n)
	bodies := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := postQuery(t, h, `{"model":"AA==","platform":"p"}`)
			codes[i], bodies[i] = rec.Code, rec.Body.String()
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, codes[i], bodies[i])
		}
		if bodies[i] != bodies[0] {
			t.Fatalf("coalesced responses diverge: %q vs %q", bodies[i], bodies[0])
		}
	}
	st := rt.Status()
	if st.Requests != n {
		t.Fatalf("requests = %d, want %d", st.Requests, n)
	}
	if q := f.queries.Load(); q+st.Coalesced != n || st.Coalesced == 0 {
		t.Fatalf("dispatches %d + coalesced %d != %d (or nothing coalesced)", q, st.Coalesced, n)
	}
	if q := f.queries.Load(); q != 1 {
		t.Fatalf("replica saw %d dispatches for identical concurrent requests, want 1", q)
	}

	// Sequential repeats never coalesce: the flight retires before its
	// result is published.
	before := f.queries.Load()
	for i := 0; i < 2; i++ {
		if rec := postQuery(t, h, `{"model":"AA==","platform":"p"}`); rec.Code != http.StatusOK {
			t.Fatalf("sequential repeat: status %d", rec.Code)
		}
	}
	if got := f.queries.Load() - before; got != 2 {
		t.Fatalf("sequential repeats dispatched %d times, want 2", got)
	}
}

// TestRouterCoalescingKeysOnHeaders: identical bodies under different
// X-NNLQP-* headers must not share a flight — an SLO class difference means
// a different admission outcome at the replica.
func TestRouterCoalescingKeysOnHeaders(t *testing.T) {
	f := newFakeReplica(t)
	f.setDelay(150 * time.Millisecond)
	rt := New(Config{})
	rt.AddReplica("only", f.addr())
	h := rt.Handler()

	post := func(class string) int {
		req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{"model":"AA==","platform":"p"}`))
		if class != "" {
			req.Header.Set("X-NNLQP-Class", class)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w.Code
	}
	var wg sync.WaitGroup
	for _, class := range []string{"", "interactive", "batch"} {
		wg.Add(1)
		go func(c string) {
			defer wg.Done()
			if code := post(c); code != http.StatusOK {
				t.Errorf("class %q: status %d", c, code)
			}
		}(class)
	}
	wg.Wait()
	if q := f.queries.Load(); q != 3 {
		t.Fatalf("distinct-header requests dispatched %d times, want 3", q)
	}
	if st := rt.Status(); st.Coalesced != 0 {
		t.Fatalf("coalesced = %d, want 0", st.Coalesced)
	}
}

// TestRouterRefusesOversizeBody: the router buffers a body before it can
// forward it, so it enforces the replicas' cap itself — 413, and no replica
// is troubled.
func TestRouterRefusesOversizeBody(t *testing.T) {
	rep := newFakeReplica(t)
	rt := New(Config{Policy: NewRoundRobin(), MaxAttempts: 2, Health: fastHealth()})
	rt.AddReplica("r", rep.addr())
	body := `{"platform":"p","model":"` + strings.Repeat("A", maxBodyBytes) + `"}`
	if w := postQuery(t, rt.Handler(), body); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", w.Code)
	}
	if n := rep.queries.Load(); n != 0 {
		t.Fatalf("the oversize body reached a replica (%d requests)", n)
	}
}
