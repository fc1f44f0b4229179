//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clients is the number of load-generator goroutines, each with one
// keep-alive connection: the sandbox has two cores, and callers of /query
// (NAS loops) wait for each reply.
const clients = 2

// sample is the record of one request, times as offsets from window start.
type sample struct {
	req    int32         // index into the plan
	due    time.Duration // when it should have been sent (closed loop: sent)
	sent   time.Duration
	done   time.Duration
	late   time.Duration // how long after it could have sent the generator did
	status int           // HTTP status, 0 for a transport error
	wire   int           // request + response body bytes
	resp   wireResponse
	traced bool // spans were recorded while this request ran
	wrong  bool // set by verify: the answer was not the oracle's
}

// latency is what the caller experienced: from the due time, so a stall
// charges every request queued behind it.
func (s *sample) latency() time.Duration { return s.done - s.due }

// wireResponse is the client's view of a /query or /predict answer.
type wireResponse struct {
	LatencyMS  float64 `json:"latency_ms"`
	CacheHit   bool    `json:"cache_hit"`
	Provenance string  `json:"provenance"`
	Tier       string  `json:"tier"`
	Memoized   bool    `json:"memoized"`
}

// target is where requests go; a fake implements it in tests.
type target interface {
	do(path string, body []byte) (status int, resp []byte, err error)
}

// httpTarget posts over one private keep-alive connection.
type httpTarget struct {
	base   string
	client *http.Client
	buf    bytes.Buffer
}

func newHTTPTarget(addr string) *httpTarget {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &httpTarget{base: "http://" + addr, client: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (t *httpTarget) do(path string, body []byte) (int, []byte, error) {
	resp, err := t.client.Post(t.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	t.buf.Reset()
	_, err = io.Copy(&t.buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, t.buf.Bytes(), nil
}

func (t *httpTarget) close() { t.client.CloseIdleConnections() }

// plan is the ordered request sequence of one window.
type plan struct {
	reqs  []request
	items []item
	cycle bool // wrap around when reqs is exhausted (closed loop only)
	open  bool // requests carry due times; otherwise each client sends as soon as it is free
}

// loadResult is everything one window observed from the client side.
type loadResult struct {
	samples   []sample
	wall      time.Duration // window start to last completion
	clientCPU float64       // load-generator CPU seconds over the window
}

// runLoad drives p against the targets (one goroutine each) for at most
// window, or until a non-cycling plan is exhausted. When tr is non-nil,
// requests sent at or after traceFrom record client-side spans.
func runLoad(p *plan, targets []target, window time.Duration, tr *tracer, traceFrom time.Duration) loadResult {
	var next atomic.Int64
	perWorker := make([][]sample, len(targets))
	cpu0 := selfCPUSeconds()
	start := time.Now()
	var wg sync.WaitGroup
	for w, tg := range targets {
		wg.Add(1)
		go func(w int, tg target) {
			defer wg.Done()
			out := make([]sample, 0, 4096)
			for {
				k := int(next.Add(1) - 1)
				if k >= len(p.reqs) && !p.cycle {
					break
				}
				idx := k % len(p.reqs)
				r := p.reqs[idx]
				free := time.Since(start)
				s := sample{req: int32(idx)}
				if p.open {
					if wait := r.due - free; wait > 0 {
						time.Sleep(wait)
					}
					s.due = r.due
					s.sent = time.Since(start)
					s.late = s.sent - max(r.due, free)
				} else {
					if free >= window {
						break
					}
					s.due, s.sent = free, free
				}
				body := p.items[r.item].body
				status, resp, err := tg.do(r.path, body)
				s.done = time.Since(start)
				s.wire = len(body) + len(resp)
				if err == nil {
					s.status = status
					if status == http.StatusOK && json.Unmarshal(resp, &s.resp) != nil {
						s.status = -1 // a 200 whose body does not parse is a wrong answer
					}
				}
				if tr != nil && s.sent >= traceFrom {
					s.traced = true
					root := tr.add("request", k, -1, start.Add(s.due), start.Add(s.done))
					tr.add("bench.wait", k, root, start.Add(s.due), start.Add(s.sent))
					tr.add("bench.round_trip", k, root, start.Add(s.sent), start.Add(s.done))
				}
				out = append(out, s)
			}
			perWorker[w] = out
		}(w, tg)
	}
	wg.Wait()
	res := loadResult{clientCPU: selfCPUSeconds() - cpu0}
	for _, ws := range perWorker {
		res.samples = append(res.samples, ws...)
	}
	sort.Slice(res.samples, func(i, j int) bool { return res.samples[i].sent < res.samples[j].sent })
	for i := range res.samples {
		res.wall = max(res.wall, res.samples[i].done)
	}
	return res
}

// selfCPUSeconds is this process's consumed user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rank is the 1-based nearest-rank index of the p-th percentile among n
// ascending values (the epsilon absorbs 99.9/100*1000 = 999.0000000000001).
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n)/100-1e-9)), 1), n)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, ascending values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// tailPercentiles are the tail percentiles the benchmark may report.
var tailPercentiles = []float64{99.9, 99, 95, 90}

// highestSupported returns the highest tail percentile with at least ten of
// n samples beyond it, or 0 when n supports none.
func highestSupported(n int) float64 {
	for _, p := range tailPercentiles {
		if n > 0 && n-rank(n, p) >= 10 {
			return p
		}
	}
	return 0
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(v, n=4) does (exclusive method), which is
// what the driver computes spreads with.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
