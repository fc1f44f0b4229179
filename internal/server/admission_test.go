package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nnlqp/internal/db"
	"nnlqp/internal/hwsim"
	"nnlqp/internal/models"
	"nnlqp/internal/slo"
)

// TestAdmissionRateCapUnder64Clients hammers the token bucket with 64
// concurrent clients for a fixed window and asserts the hard cap: admitted
// can never exceed rate*elapsed + burst, no matter the concurrency.
func TestAdmissionRateCapUnder64Clients(t *testing.T) {
	const (
		rate    = 200.0
		burst   = 20.0
		clients = 64
		window  = 500 * time.Millisecond
	)
	a := NewAdmission(AdmissionConfig{Rate: rate, Burst: burst})
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			class := slo.Classes[n%len(slo.Classes)]
			for time.Now().Before(deadline) {
				_ = a.Admit(context.Background(), class)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	st := a.Stats()
	if st.Requests != st.Admitted+st.Shed {
		t.Fatalf("invariant broken: requests %d != admitted %d + shed %d",
			st.Requests, st.Admitted, st.Shed)
	}
	// elapsed is measured after the last Admit returned, so it upper-bounds
	// every admit's refill horizon; +1 absorbs the fractional token in
	// flight at the cut.
	cap := rate*elapsed + burst + 1
	if float64(st.Admitted) > cap {
		t.Fatalf("admitted %d > rate*elapsed+burst = %.1f (elapsed %.3fs)",
			st.Admitted, cap, elapsed)
	}
	if st.Shed == 0 {
		t.Fatal("64 clients against a 200/s bucket should have shed something")
	}
	var perClass int64
	for _, c := range st.ByClass {
		perClass += c.Admitted + c.Shed
	}
	if perClass != st.Requests {
		t.Fatalf("per-class sum %d != requests %d", perClass, st.Requests)
	}
}

// TestAdmissionQueuePriorityServesInteractiveFirst queues best-effort
// waiters before interactive ones on a drained bucket and asserts strict
// deadline-urgency ordering of the grants: every interactive admit lands
// before any best-effort admit, and interactive p95 wait < best-effort p95
// wait.
func TestAdmissionQueuePriorityServesInteractiveFirst(t *testing.T) {
	const perClass = 8
	a := NewAdmission(AdmissionConfig{Rate: 200, Burst: 1, QueueCap: 64})
	// Drain the bucket so every waiter below must queue.
	if err := a.Admit(context.Background(), slo.BestEffort); err != nil {
		t.Fatalf("drain admit: %v", err)
	}

	var order atomic.Int64
	type done struct {
		class slo.Class
		rank  int64
		wait  time.Duration
	}
	results := make(chan done, 2*perClass)
	launch := func(class slo.Class) {
		start := time.Now()
		if err := a.Admit(context.Background(), class); err != nil {
			t.Errorf("%s admit: %v", class, err)
			return
		}
		results <- done{class: class, rank: order.Add(1), wait: time.Since(start)}
	}

	// Best-effort waiters queue first...
	for i := 0; i < perClass; i++ {
		go launch(slo.BestEffort)
	}
	waitForQueue(t, a, perClass)
	// ...then the interactive waiters arrive late.
	for i := 0; i < perClass; i++ {
		go launch(slo.Interactive)
	}
	waitForQueue(t, a, 2*perClass)

	waits := map[slo.Class][]time.Duration{}
	ranks := map[slo.Class][]int64{}
	for i := 0; i < 2*perClass; i++ {
		d := <-results
		waits[d.class] = append(waits[d.class], d.wait)
		ranks[d.class] = append(ranks[d.class], d.rank)
	}
	maxInt, minBE := int64(0), int64(1<<62)
	for _, r := range ranks[slo.Interactive] {
		if r > maxInt {
			maxInt = r
		}
	}
	for _, r := range ranks[slo.BestEffort] {
		if r < minBE {
			minBE = r
		}
	}
	if maxInt > minBE {
		t.Fatalf("interactive rank %d admitted after best-effort rank %d", maxInt, minBE)
	}
	p95 := func(ds []time.Duration) time.Duration {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[(len(ds)*95+99)/100-1]
	}
	pi, pb := p95(waits[slo.Interactive]), p95(waits[slo.BestEffort])
	if pi >= pb {
		t.Fatalf("interactive p95 wait %s >= best-effort p95 wait %s", pi, pb)
	}
}

func waitForQueue(t *testing.T, a *Admission, depth int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().QueuedNow < depth {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached depth %d (now %d)", depth, a.Stats().QueuedNow)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionQueueCapSheds fills the queue and asserts the next arrival
// is shed immediately with a sane Retry-After.
func TestAdmissionQueueCapSheds(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Rate: 0.5, Burst: 1, QueueCap: 2})
	if err := a.Admit(context.Background(), slo.BestEffort); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		go a.Admit(ctx, slo.BestEffort) //nolint:errcheck // released via cancel
	}
	waitForQueue(t, a, 2)
	err := a.Admit(context.Background(), slo.Interactive)
	shed, ok := err.(*ShedError)
	if !ok {
		t.Fatalf("full queue returned %v, want *ShedError", err)
	}
	// 2 queued + 1 new - 0 tokens at 0.5/s => ~6s.
	if shed.RetryAfter < time.Second {
		t.Fatalf("Retry-After %s < 1s", shed.RetryAfter)
	}
	cancel() // shed the queued waiters
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().QueuedNow != 0 {
		if time.Now().After(deadline) {
			t.Fatal("queued waiters never drained after cancel")
		}
		time.Sleep(time.Millisecond)
	}
	st := a.Stats()
	if st.Requests != st.Admitted+st.Shed {
		t.Fatalf("invariant broken: %d != %d + %d", st.Requests, st.Admitted, st.Shed)
	}
}

// TestAdmissionHTTP429RetryAfter drives the real HTTP path: with a drained
// one-token bucket and no queue, the second rapid request must answer 429
// with a parseable Retry-After header, and /stats must expose the shed.
func TestAdmissionHTTP429RetryAfter(t *testing.T) {
	client, srv := startServer(t, nil)
	srv.ConfigureAdmission(AdmissionConfig{Rate: 0.001, Burst: 1, QueueCap: 0})

	post := func(class string) *http.Response {
		req, err := http.NewRequest(http.MethodPost, client.BaseURL+"/query",
			bytes.NewReader([]byte(`{}`)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if class != "" {
			req.Header.Set(slo.Header, class)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// First request takes the only token (then 400s on the empty body —
	// admission is upstream of request parsing, which is the point: shedding
	// must not cost a body parse).
	if resp := post(""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("first request status %d, want 400", resp.StatusCode)
	}
	resp := post("interactive")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request status %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want integer >= 1", ra)
	}

	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.AdmitRequests != 2 || st.Admitted != 1 || st.Shed != 1 {
		t.Fatalf("stats requests/admitted/shed = %d/%d/%d, want 2/1/1",
			st.AdmitRequests, st.Admitted, st.Shed)
	}
	if got := st.AdmitByClass[slo.Interactive].Shed; got != 1 {
		t.Fatalf("interactive shed = %d, want 1 (by-class: %v)", got, st.AdmitByClass)
	}
}

// TestAdmissionStatsInvariantUnderConcurrentHTTPLoad floods /query from 64
// goroutines through a rate-limited server and asserts the /stats identity
// admit_requests = admitted + shed holds exactly, with every request
// accounted for.
func TestAdmissionStatsInvariantUnderConcurrentHTTPLoad(t *testing.T) {
	client, srv := startServer(t, nil)
	srv.ConfigureAdmission(AdmissionConfig{Rate: 300, Burst: 10, QueueCap: 4})

	// Warm one graph so admitted queries are instant L1 hits, keeping the
	// flood focused on the admission layer. (This query is admitted too.)
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	if _, err := client.Query(g, "cpu-openppl-fp32", 0); err != nil {
		t.Fatalf("warm query: %v", err)
	}

	const clients, perClient = 64, 8
	var wg sync.WaitGroup
	var sent atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c := NewClient(client.BaseURL)
			c.Class = slo.Classes[n%len(slo.Classes)]
			for j := 0; j < perClient; j++ {
				sent.Add(1)
				_, _ = c.Query(g, "cpu-openppl-fp32", 0) // 429s expected
			}
		}(i)
	}
	wg.Wait()

	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	total := sent.Load() + 1 // + the warm query
	if st.AdmitRequests != total {
		t.Fatalf("admit_requests %d != sent %d", st.AdmitRequests, total)
	}
	if st.AdmitRequests != st.Admitted+st.Shed {
		t.Fatalf("invariant broken: %d != %d + %d", st.AdmitRequests, st.Admitted, st.Shed)
	}
	var perClass int64
	for _, c := range st.AdmitByClass {
		perClass += c.Admitted + c.Shed
	}
	if perClass != st.AdmitRequests {
		t.Fatalf("per-class sum %d != admit_requests %d", perClass, st.AdmitRequests)
	}
	if st.AdmitQueueNow != 0 {
		t.Fatalf("admit_queue_now %d after drain, want 0", st.AdmitQueueNow)
	}
}

// TestAdmissionOverRateFloodSheds pins the overload contract at the HTTP
// surface: concurrent clients flooding far above the admission rate for about
// a second get fast 429 sheds, and the 200s stay within rate·wall + burst + 1.
// More would mean the server queued unboundedly instead of shedding.
func TestAdmissionOverRateFloodSheds(t *testing.T) {
	const (
		rate, burst = 30.0, 5.0
		clients     = 8
		platform    = "cpu-openppl-fp32"
	)
	store, err := db.OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv := New(store, &hwsim.LocalFarm{Farm: hwsim.NewDefaultFarm(2)}, nil)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Warm the graph before admission is on, so every admitted request is an
	// instant L1 hit and the flood measures the admission layer alone.
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	if _, err := NewClient(ts.URL).Query(g, platform, 0); err != nil {
		t.Fatalf("warm query: %v", err)
	}
	req, err := encodeRequest(g, platform, 0)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	srv.ConfigureAdmission(AdmissionConfig{Rate: rate, Burst: burst, QueueCap: 4})

	var sent, oks, sheds atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Second)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				sent.Add(1)
				resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("post: %v", err)
					return
				}
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					oks.Add(1)
				case http.StatusTooManyRequests:
					sheds.Add(1)
				default:
					t.Errorf("status %d, want 200 or 429", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if t.Failed() {
		return
	}

	if sheds.Load() == 0 {
		t.Fatalf("%d clients against a %v/s bucket shed nothing (%d ok)", clients, rate, oks.Load())
	}
	if oks.Load() == 0 {
		t.Fatalf("the flood shed everything (%d sheds)", sheds.Load())
	}
	if limit := rate*wall.Seconds() + burst + 1; float64(oks.Load()) > limit {
		t.Fatalf("%d admitted > rate·wall + burst + 1 = %.1f: queueing, not shedding", oks.Load(), limit)
	}
	st, err := NewClient(ts.URL).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.AdmitRequests != st.Admitted+st.Shed {
		t.Fatalf("invariant broken: admit_requests %d != admitted %d + shed %d", st.AdmitRequests, st.Admitted, st.Shed)
	}
	if st.AdmitRequests != sent.Load() {
		t.Fatalf("admit_requests %d != requests sent %d", st.AdmitRequests, sent.Load())
	}
}
