//go:build linux

package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"nnlqp/internal/cluster"
	"nnlqp/internal/db"
	"nnlqp/internal/hwsim"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload: either the end-to-end metrics
// (untraced) or the per-layer metrics (traced).
type runResult struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// Violations lists the first few wrong answers, for the log.
	Violations []string `json:"violations,omitempty"`
}

const (
	// setupRepeats is how many times an untraced run sets its fleet up; the
	// median is setup_s and the last fleet takes the load.
	setupRepeats = 3
	// The generator, not the server, was measured if it ran late or hot.
	maxGenLateP99 = 5 * time.Millisecond
	maxClientCPU  = 0.6 // of one core per client
	// minWindowShare: a never-repeating plan must last this share of the
	// window, or the pool was too small for the machine.
	minWindowShare = 0.9
	maxViolations  = 10
)

// snapshot is the server side's counters at one instant.
type snapshot struct {
	stats   []counters             // one per replica
	cluster cluster.StatusResponse // zero when unrouted
	cpu     float64
}

func takeSnapshot(f *fleet) (snapshot, error) {
	var s snapshot
	var err error
	for _, p := range f.replicas {
		st, err := p.stats()
		if err != nil {
			return s, err
		}
		s.stats = append(s.stats, st)
	}
	if f.router != nil {
		if s.cluster, err = f.router.clusterStatus(); err != nil {
			return s, err
		}
	}
	s.cpu, err = f.cpuSeconds()
	return s, err
}

// sum adds one counter over the replicas.
func (s snapshot) sum(name string) float64 {
	var n float64
	for _, c := range s.stats {
		n += c.get(name)
	}
	return n
}

func (s snapshot) ejections() float64 {
	var n float64
	for _, m := range s.cluster.Members {
		n += float64(m.Ejections)
	}
	return n
}

// setUp starts a fresh fleet and drives the scenario's preload through it.
// It returns the fleet and the request rate of the preload's second half.
func setUp(e *env, w *workload, sc *scenario) (*fleet, float64, error) {
	f, err := startFleet(e, w.replicas, w.routed, w.replicaArgs)
	if err != nil {
		return nil, 0, err
	}
	fail := func(r request, status int) (*fleet, float64, error) {
		f.stop()
		return nil, 0, fmt.Errorf("set-up request %s for item %d failed with status %d", r.path, r.item, status)
	}
	// Each replica takes its first request alone. The first /query on an
	// empty database registers the platform row, and db.Store.InsertPlatform
	// is check-then-insert: two first queries racing each other can make one
	// of them a 500. That is a server defect this benchmark found; a workload
	// must not fail by design, so set-up steps around it.
	first := sc.preload[0]
	for _, p := range f.replicas {
		t := newHTTPTarget(p.addr)
		status, _, _ := t.do(first.path, sc.items[first.item].body)
		t.close()
		if status != http.StatusOK {
			return fail(first, status)
		}
	}
	targets, closeTargets := dial(f.front().addr, clients)
	defer closeTargets()
	load := runLoad(&plan{reqs: sc.preload, items: sc.items}, targets, time.Hour, nil, 0)
	for i := range load.samples {
		if s := &load.samples[i]; s.status != http.StatusOK {
			return fail(sc.preload[s.req], s.status)
		}
	}
	half := load.samples[len(load.samples)/2:]
	rate := float64(len(half)) / (load.wall - half[0].sent).Seconds()
	return f, rate, nil
}

func dial(addr string, n int) ([]target, func()) {
	targets := make([]target, n)
	for i := range targets {
		targets[i] = newHTTPTarget(addr)
	}
	return targets, func() {
		for _, t := range targets {
			t.(*httpTarget).close()
		}
	}
}

// runWorkload performs one run. With spans nil it reports the end-to-end
// metrics; otherwise it is the traced run: per-layer metrics, spans recorded.
func runWorkload(e *env, w *workload, seed int64, seconds float64, spans *tracer) (*runResult, error) {
	trace := spans != nil
	prepStart := time.Now()
	sc, err := w.prepare(seed)
	if err != nil {
		return nil, err
	}
	prep := time.Since(prepStart)

	repeats := setupRepeats
	if trace {
		repeats = 1
	}
	var (
		f        *fleet
		warmRate float64
		setups   []float64
	)
	for i := 0; i < repeats; i++ {
		if f != nil {
			f.stop()
		}
		start := time.Now()
		if f, warmRate, err = setUp(e, w, sc); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() { f.stop() }()

	window := time.Duration(seconds * float64(time.Second))
	prepStart = time.Now()
	timed, tail, err := sc.plan(window, warmRate)
	if err != nil {
		return nil, err
	}
	prep += time.Since(prepStart)

	targets, closeTargets := dial(f.front().addr, clients)
	defer closeTargets()
	before, err := takeSnapshot(f)
	if err != nil {
		return nil, err
	}
	cpuAtBoundaries := sampleCPU(f, window)
	// A traced run records client-side spans in the second half of the
	// window only: the first half is the untraced reference for
	// bench.trace_overhead_frac.
	load := runLoad(&timed, targets, window, spans, window/2)
	cpu, err := cpuAtBoundaries()
	if err != nil {
		return nil, err
	}
	after, err := takeSnapshot(f)
	if err != nil {
		return nil, err
	}
	rss, err := f.rssPeakMB()
	if err != nil {
		return nil, err
	}

	res := &runResult{Workload: w.spec.Name, Seed: seed, Trace: trace, Attempted: len(load.samples), Metrics: map[string]value{}}
	if err := checkGenerator(w, &timed, &load, window); err != nil {
		return nil, err
	}
	verify(e, res, sc.items, timed.reqs, load.samples)
	for i, st := range after.stats {
		q, h, m, c, f := st.get("queries"), st.get("hits"), st.get("misses"), st.get("coalesced"), st.get("failures")
		if q != h+m+c+f {
			res.violate("replica %d /stats: queries %v != hits %v + misses %v + coalesced %v + failures %v", i, q, h, m, c, f)
		}
	}
	res.Correct = res.Failed == 0

	var lat []float64
	var wire int
	for i := range load.samples {
		s := &load.samples[i]
		wire += s.wire
		if s.status == http.StatusOK {
			lat = append(lat, ms(s.latency()))
		}
	}
	sort.Float64s(lat)
	if highestSupported(len(lat)) < 99 {
		return nil, fmt.Errorf("%s: %d samples do not support p99 (fewer than ten lie beyond it): lengthen the run", w.spec.Name, len(lat))
	}
	if !trace {
		seg, err := bySegment(load.samples, window, cpu)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.spec.Name, err)
		}
		res.set("setup_s", median(setups))
		res.set("throughput_rps", median(seg.rps))
		res.set("latency_p50_ms", median(seg.p50))
		res.set("latency_p90_ms", median(seg.p90))
		res.set("server_cpu_ms_per_req", median(seg.cpuPerReq))
		res.set("server_rss_peak_mb", rss)
		res.set("wire_bytes_per_req", float64(wire)/float64(len(load.samples)))
		return res, nil
	}

	res.set("bench.samples", float64(len(lat)))
	res.set("bench.latency_p99_ms", percentile(lat, 99))
	res.set("bench.prep_s", e.prepS+prep.Seconds())
	res.set("bench.client_cpu_frac", load.clientCPU/load.wall.Seconds()/clients)
	res.set("bench.gen_late_p99_ms", genLateP99(&load))
	res.set("bench.trace_overhead_frac", traceOverhead(&load))
	counterMetrics(res, before, after, &timed, &load)
	if err := layerMetrics(e, w, f, res, sc, tail, spans); err != nil {
		return nil, err
	}
	return res, nil
}

// segments is how many equal slices of the window the timing metrics are
// computed over. Each metric reports its median slice, so a stall that hits
// one part of a run (a neighbour on the host, a GC cycle) does not move the
// run's number; one that recurs in most slices (a checkpoint per second)
// still does.
const segments = 5

// sampleCPU reads the fleet's consumed CPU at every segment boundary of a
// window that starts now. The returned function waits for the last reading.
func sampleCPU(f *fleet, window time.Duration) func() ([]float64, error) {
	var (
		readings []float64
		err      error
		done     = make(chan struct{})
		start    = time.Now()
	)
	go func() {
		defer close(done)
		for i := 0; i <= segments; i++ {
			time.Sleep(time.Until(start.Add(window * time.Duration(i) / segments)))
			var c float64
			if c, err = f.cpuSeconds(); err != nil {
				return
			}
			readings = append(readings, c)
		}
	}()
	return func() ([]float64, error) {
		<-done
		return readings, err
	}
}

// segmentStats holds one value per window segment.
type segmentStats struct {
	rps, p50, p90, cpuPerReq []float64
}

// bySegment assigns each request to the segment it completed in and computes
// the timing metrics per segment. cpu holds the server side's cumulative CPU
// seconds at the segment boundaries.
func bySegment(samples []sample, window time.Duration, cpu []float64) (segmentStats, error) {
	var st segmentStats
	width := window / segments
	lat := make([][]float64, segments)
	good := make([]int, segments)
	for i := range samples {
		s := &samples[i]
		k := min(int(s.done/width), segments-1)
		if s.status == http.StatusOK {
			lat[k] = append(lat[k], ms(s.latency()))
			if !s.wrong {
				good[k]++
			}
		}
	}
	for k := range lat {
		if highestSupported(len(lat[k])) < 90 {
			return st, fmt.Errorf("segment %d of %d completed %d requests, too few for a p90 (ten must lie beyond it): lengthen the run", k, segments, len(lat[k]))
		}
		sort.Float64s(lat[k])
		st.rps = append(st.rps, float64(good[k])/width.Seconds())
		st.p50 = append(st.p50, percentile(lat[k], 50))
		st.p90 = append(st.p90, percentile(lat[k], 90))
		st.cpuPerReq = append(st.cpuPerReq, (cpu[k+1]-cpu[k])*1e3/float64(len(lat[k])))
	}
	return st, nil
}

func (r *runResult) set(name string, v float64) {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				r.Metrics[name] = value{Value: v, Unit: m.Unit}
				return
			}
		}
	}
	panic("benchmark: metric " + name + " is not declared in spec.go")
}

func (r *runResult) violate(format string, args ...any) {
	r.Failed++
	if len(r.Violations) < maxViolations {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
}

// checkGenerator refuses a run in which the load generator, not the server,
// was what got measured.
func checkGenerator(w *workload, p *plan, load *loadResult, window time.Duration) error {
	if len(load.samples) == 0 {
		return fmt.Errorf("%s: no request completed", w.spec.Name)
	}
	if !p.cycle && !p.open && load.wall.Seconds() < minWindowShare*window.Seconds() {
		return fmt.Errorf("%s: the pool of %d fresh graphs lasted %.1fs of a %.1fs window: the warm-up underestimated this machine, raise poolHeadroom",
			w.spec.Name, len(p.reqs), load.wall.Seconds(), window.Seconds())
	}
	if frac := load.clientCPU / load.wall.Seconds() / clients; frac > maxClientCPU {
		return fmt.Errorf("%s: the load generator used %.2f of a core per client (limit %.2f): its own cost was measured", w.spec.Name, frac, maxClientCPU)
	}
	if late := genLateP99(load); late > ms(maxGenLateP99) {
		return fmt.Errorf("%s: the open-loop generator dispatched %.2f ms late at p99 (limit %v): the schedule was not kept", w.spec.Name, late, maxGenLateP99)
	}
	return nil
}

// genLateP99 is how late the generator sent requests it was free to send.
func genLateP99(load *loadResult) float64 {
	late := make([]float64, len(load.samples))
	for i := range load.samples {
		late[i] = ms(load.samples[i].late)
	}
	sort.Float64s(late)
	return percentile(late, 99)
}

// traceOverhead compares median latency with client-side spans on (second
// half of the window) against spans off (first half).
func traceOverhead(load *loadResult) float64 {
	var off, on []float64
	for i := range load.samples {
		s := &load.samples[i]
		if s.status != http.StatusOK {
			continue
		}
		if s.traced {
			on = append(on, ms(s.latency()))
		} else {
			off = append(off, ms(s.latency()))
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return 0
	}
	return median(on)/median(off) - 1
}

// verify checks every answer against the oracle, off the clock: /query must
// return exactly what the simulator measures for the graph the server
// decoded, /predict exactly what the predictor file predicts for it, and the
// tier or provenance must be the one the workload determines.
func verify(e *env, res *runResult, items []item, reqs []request, samples []sample) {
	type want struct {
		item int32
		path string
	}
	expected := make(map[want]float64)
	for i := range samples {
		r := reqs[samples[i].req]
		expected[want{r.item, r.path}] = 0
	}
	keys := make([]want, 0, len(expected))
	for k := range expected {
		keys = append(keys, k)
	}
	vals := make([]float64, len(keys))
	errs := make([]error, len(keys))
	p, err := hwsim.PlatformByName(platform)
	if err != nil {
		res.violate("oracle: %v", err)
		return
	}
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(keys); i += workers {
				_, g, err := decodeRequest(items[keys[i].item].body, nil, 0, 0)
				if err != nil {
					errs[i] = err
					continue
				}
				if keys[i].path == "/predict" {
					vals[i], errs[i] = e.pred.Predict(g, platform)
				} else if m, err := p.Measure(g); err != nil {
					errs[i] = err
				} else {
					vals[i] = m.LatencyMS
				}
			}
		}(w)
	}
	wg.Wait()
	for i, k := range keys {
		if errs[i] != nil {
			res.violate("oracle for item %d %s: %v", k.item, k.path, errs[i])
		}
		expected[k] = vals[i]
	}
	for i := range samples {
		s := &samples[i]
		r := reqs[s.req]
		s.wrong = true
		switch exp := expected[want{r.item, r.path}]; {
		case s.status != http.StatusOK:
			res.violate("request %d %s item %d: status %d", s.req, r.path, r.item, s.status)
		case s.resp.LatencyMS != exp:
			res.violate("request %d %s item %d: latency_ms %v, oracle says %v", s.req, r.path, r.item, s.resp.LatencyMS, exp)
		case !r.expect.holds(&s.resp):
			res.violate("request %d %s item %d: answered %+v, workload expects %s", s.req, r.path, r.item, s.resp, r.expect)
		default:
			s.wrong = false
		}
	}
}

func (x expectation) holds(r *wireResponse) bool {
	switch x {
	case expectL1:
		return r.CacheHit && r.Tier == "l1"
	case expectCacheHit:
		return r.CacheHit
	case expectMeasured:
		return !r.CacheHit && r.Provenance == "measured"
	case expectFresh:
		return !r.Memoized
	}
	return true
}

func (x expectation) String() string {
	return [...]string{"anything", "an L1 hit", "a cache hit", "a fresh measurement", "a fresh prediction"}[x]
}

// counterMetrics derives the per-layer counters from /stats and /cluster
// deltas over the timed window.
func counterMetrics(res *runResult, before, after snapshot, p *plan, load *loadResult) {
	delta := func(name string) float64 { return after.sum(name) - before.sum(name) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	queries, l1, misses := delta("queries"), delta("l1_hits"), delta("misses")
	res.set("query.l1_hit_ratio", ratio(l1, queries))
	res.set("query.l2_hits", delta("hits")-l1)
	res.set("query.misses", misses)
	res.set("query.coalesced", delta("coalesced"))
	res.set("query.failures", delta("failures"))
	res.set("db.fsyncs_per_miss", ratio(delta("db_fsyncs"), misses))
	res.set("db.commit_batch_mean", ratio(delta("db_commit_records"), delta("db_commit_batches")))
	res.set("db.checkpoints", delta("db_checkpoints"))
	res.set("hwsim.device_wait_s", delta("device_wait_seconds"))
	res.set("hwsim.hedges", delta("hedges"))
	res.set("hwsim.retries", delta("retries"))
	res.set("server.admit_shed", delta("shed"))
	predicts := 0
	for i := range load.samples {
		if p.reqs[load.samples[i].req].path == "/predict" {
			predicts++
		}
	}
	res.set("core.memo_hit_ratio", ratio(delta("memo_hits"), float64(predicts)))
	// The cluster metrics read 0 without a router: no hop, nothing to route.
	res.set("cluster.affinity_l1_hit_ratio", 0)
	if len(after.cluster.Members) > 0 {
		res.set("cluster.affinity_l1_hit_ratio", ratio(l1, queries))
	}
	res.set("cluster.coalesced", float64(after.cluster.Coalesced-before.cluster.Coalesced))
	res.set("cluster.retries", float64(after.cluster.Retries-before.cluster.Retries))
	res.set("cluster.ejections", after.ejections()-before.ejections())
}

// layerMetrics runs the traced sample: the tail requests once against the
// real fleet with one client (round trips), once through the in-process
// replay (stage spans), and the direct-call probes; then the end-of-run
// storage measurements.
func layerMetrics(e *env, w *workload, f *fleet, res *runResult, sc *scenario, tail []request, spans *tracer) error {
	items := sc.items
	one, closeOne := dial(f.front().addr, 1)
	defer closeOne()
	wire := runLoad(&plan{reqs: tail, items: items}, one, time.Hour, nil, 0)
	res.Attempted += len(wire.samples)
	verify(e, res, items, tail, wire.samples)
	rt := make([]float64, len(wire.samples))
	for i := range wire.samples {
		s := &wire.samples[i]
		rt[i] = us(s.done - s.sent)
	}

	// The replay's system is brought to the state the fleet was in after
	// set-up by the same preload; a routed fleet's caches add up.
	replayDir := filepath.Join(f.dir, "replay")
	ip, err := newInproc(e, filepath.Join(replayDir, "db"), w.cacheEntries*w.replicas)
	if err != nil {
		return err
	}
	defer ip.close()
	for _, r := range sc.preload {
		if _, err := ip.handle(r.path, items[r.item].body, nil, 0); err != nil {
			return fmt.Errorf("replay preload: %w", err)
		}
	}
	first := len(spans.spans)
	outcomes := make([]string, len(tail))
	for i, r := range tail {
		if err := clientStages(items[r.item].body, spans, i); err != nil {
			return err
		}
		n := len(spans.spans)
		out, err := ip.handle(r.path, items[r.item].body, spans, i)
		if err != nil {
			return fmt.Errorf("replay request %d: %w", i, err)
		}
		if out.LatencyMS != wire.samples[i].resp.LatencyMS && wire.samples[i].status == http.StatusOK {
			res.violate("replay request %d: in-process answer %v differs from the server's %v", i, out.LatencyMS, wire.samples[i].resp.LatencyMS)
		}
		for _, s := range spans.spans[n:] {
			if strings.HasPrefix(s.Name, "query.") {
				outcomes[i] = s.Name
			}
		}
	}
	res.Correct = res.Failed == 0
	stage := durations(spans.spans[first:])
	med := func(name string) float64 { return median(stage[name]) } // 0 for a stage no request ran
	var inServer float64
	for _, name := range []string{
		"server.json_decode", "server.base64_decode", "onnx.decode", "onnx.validate", "onnx.infer_shapes",
		"graphhash.key", "query.l1_hit", "query.l2_hit", "query.miss", "core.memo_get", "feats.extract",
		"core.predict", "server.response_encode",
	} {
		// Weighted by how many of the sample's requests ran the stage, so the
		// sum is the sample's typical in-process time.
		inServer += med(name) * float64(len(stage[name])) / float64(len(tail))
	}
	res.set("onnx.encode_us", med("onnx.encode"))
	res.set("server.client_encode_us", med("server.client_encode"))
	res.set("server.json_decode_us", med("server.json_decode"))
	res.set("server.base64_decode_us", med("server.base64_decode"))
	res.set("onnx.decode_us", med("onnx.decode"))
	res.set("onnx.validate_us", med("onnx.validate"))
	res.set("onnx.infer_shapes_us", med("onnx.infer_shapes"))
	res.set("graphhash.key_us", med("graphhash.key"))
	res.set("server.response_encode_us", med("server.response_encode"))
	res.set("bench.round_trip_us", median(rt))
	res.set("server.http_residual_us", median(rt)-inServer)
	res.set("query.l1_hit_us", med("query.l1_hit"))
	res.set("query.l2_hit_us", med("query.l2_hit"))
	res.set("query.miss_us", med("query.miss"))
	res.set("feats.extract_us", med("feats.extract"))
	res.set("core.memo_get_us", med("core.memo_get"))

	pr, err := probeLayers(e, ip, replayDir, tail, items, outcomes)
	if err != nil {
		return err
	}
	res.set("query.cache_get_us", median(pr.cacheGet))
	res.set("db.point_read_us", median(pr.pointRead))
	res.set("hwsim.execute_us", median(pr.execute))
	res.set("hwsim.measure_us", median(pr.measure))
	res.set("db.record_measurement_us", median(pr.record))
	res.set("db.wal_bytes_per_record", pr.walPerRecord)
	res.set("core.predict_cold_us", median(pr.predictCold))
	res.set("core.predict_warm_us", median(pr.predictWarm))
	res.set("core.predict_batch8_us_per_graph", median(pr.batch8PerGraph))
	res.set("gnn.forward_us", median(pr.forward))
	res.set("tensor.matmul_us", pr.matmulUS)
	res.set("tensor.madds_per_predict", pr.maddsPerPredict)

	res.set("cluster.router_tax_us", 0)
	if f.router != nil {
		tax, err := routerTax(f, sc)
		if err != nil {
			return err
		}
		res.set("cluster.router_tax_us", tax)
	}
	return storageMetrics(f, res)
}

// routerTax is the single-client warm-hit round trip through the router
// minus the same hit sent to a replica directly. The hottest graphs are first
// made L1-resident on replica 0 (which may not own them under affinity; its
// database is private, so ingesting them there disturbs nothing).
func routerTax(f *fleet, sc *scenario) (float64, error) {
	const hot = 64
	reqs := make([]request, hot)
	for i := range reqs {
		reqs[i] = request{item: int32(i), path: "/query"}
	}
	p := &plan{reqs: append(append([]request(nil), reqs...), reqs...), items: sc.items}
	var medians [2]float64
	for i, addr := range []string{f.replicas[0].addr, f.router.addr} {
		one, closeOne := dial(addr, 1)
		load := runLoad(p, one, time.Hour, nil, 0)
		closeOne()
		var rt []float64
		for _, s := range load.samples[hot:] {
			if s.status != http.StatusOK || !s.resp.CacheHit {
				return 0, fmt.Errorf("router tax probe: request for item %d was not a warm hit (status %d)", p.reqs[s.req].item, s.status)
			}
			rt = append(rt, us(s.done-s.sent))
		}
		medians[i] = median(rt)
	}
	return medians[1] - medians[0], nil
}

// storageMetrics forces a final checkpoint on every replica (timing it),
// sizes the database directories, stops the fleet and reopens the first
// directory in-process.
func storageMetrics(f *fleet, res *runResult) error {
	var ckpt time.Duration
	var records int
	for _, p := range f.replicas {
		d, err := p.checkpoint()
		if err != nil {
			return err
		}
		ckpt = max(ckpt, d)
		st, err := p.stats()
		if err != nil {
			return err
		}
		records += int(st.get("latencies"))
	}
	var bytes int64
	for _, dir := range f.dbDirs {
		n, err := dirBytes(dir)
		if err != nil {
			return err
		}
		bytes += n
	}
	res.set("db.checkpoint_s", ckpt.Seconds())
	res.set("db.disk_bytes_per_record", 0)
	res.set("db.reopen_s", 0)
	dbDir := f.dbDirs[0]
	f.stopProcs()
	if records == 0 {
		return nil // nothing was stored: the workload never reached the database
	}
	res.set("db.disk_bytes_per_record", float64(bytes)/float64(records))
	start := time.Now()
	store, err := db.OpenStoreWith(dbDir, db.Options{Sync: db.SyncAlways})
	if err != nil {
		return fmt.Errorf("reopen %s: %w", dbDir, err)
	}
	res.set("db.reopen_s", time.Since(start).Seconds())
	return store.Close()
}
