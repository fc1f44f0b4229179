//go:build linux

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"testing"
	"time"
)

// digest fingerprints the pool's bodies in order; same seed, same digest.
func (p *pool) digest() [sha256.Size]byte {
	h := sha256.New()
	for _, it := range p.items {
		h.Write(it.body)
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// scheduleDigest fingerprints an open-loop plan: due times, items, paths.
func scheduleDigest(reqs []request) [sha256.Size]byte {
	h := sha256.New()
	var b [16]byte
	for _, r := range reqs {
		binary.LittleEndian.PutUint64(b[:8], uint64(r.due))
		binary.LittleEndian.PutUint32(b[8:12], uint32(r.item))
		b[12] = byte(r.expect)
		h.Write(b[:])
		h.Write([]byte(r.path))
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

func TestPoolIsAFunctionOfTheSeed(t *testing.T) {
	grow := func(seed int64, steps ...int) *pool {
		p := newPool(seed, "t", 10)
		for _, n := range steps {
			if err := p.grow(n); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	a, b, stepped, other := grow(7, 300), grow(7, 300), grow(7, 20, 300), grow(8, 300)
	if a.digest() != b.digest() {
		t.Error("same seed produced different request bodies")
	}
	if a.digest() != stepped.digest() {
		t.Error("growing in two steps changed the sequence: a shorter run would not use a prefix of a longer one")
	}
	if a.digest() == other.digest() {
		t.Error("different seeds produced identical request bodies")
	}
	seen := map[uint64]bool{}
	for i, it := range a.items {
		if seen[uint64(it.key)] {
			t.Fatalf("item %d repeats a GraphKey: the pool is not distinct", i)
		}
		seen[uint64(it.key)] = true
		_, g, err := decodeRequest(it.body, nil, 0, 0)
		if err != nil {
			t.Fatalf("item %d does not decode the way the server decodes it: %v", i, err)
		}
		var draw int
		if _, err := fmt.Sscanf(g.Name, "t-%d", &draw); err != nil || draw%10 != i%10 {
			t.Errorf("item %d is %q: not a variant of family %d, so the family mix would depend on the seed", i, g.Name, i%10)
		}
		if it.batch != 0 && g.BatchSize() != 8 {
			t.Errorf("item %d: batch override %d but the decoded graph has batch %d", i, it.batch, g.BatchSize())
		}
	}
}

// SqueezeNet has 247 distinct variants and GoogleNet little over a thousand:
// a pool larger than ten times that must drop them and go on.
func TestPoolOutlivesSmallFamilies(t *testing.T) {
	p := newPool(3, "t", 0)
	if err := p.grow(4000); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, it := range p.items {
		seen[uint64(it.key)] = true
	}
	if len(seen) != len(p.items) {
		t.Errorf("%d items, %d distinct keys", len(p.items), len(seen))
	}
	if !p.dry[7] {
		t.Errorf("SqueezeNet (%d distinct variants drawn) still counts as live", len(p.byFamily[7]))
	}
}

func TestOpenLoopScheduleIsAFunctionOfTheSeed(t *testing.T) {
	window := 3 * time.Second
	a, freshA := mixedSchedule(5, window)
	b, _ := mixedSchedule(5, window)
	c, _ := mixedSchedule(6, window)
	if scheduleDigest(a) != scheduleDigest(b) {
		t.Error("same seed produced different schedules")
	}
	if scheduleDigest(a) == scheduleDigest(c) {
		t.Error("different seeds produced the same schedule")
	}
	longer, _ := mixedSchedule(5, 2*window)
	inWindow := len(a) - tailLen
	if scheduleDigest(a[:inWindow]) != scheduleDigest(longer[:inWindow]) {
		t.Error("a longer window reshuffled the schedule instead of extending it")
	}
	if got, want := float64(inWindow), mixedRate*window.Seconds(); got < 0.8*want || got > 1.2*want {
		t.Errorf("%v arrivals in %v at %d req/s", got, window, mixedRate)
	}
	novel := 0
	for i, r := range a {
		if i > 0 && r.due < a[i-1].due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		if int(r.item) >= mixedKnown {
			novel++
		}
	}
	if novel != freshA {
		t.Errorf("schedule uses %d novel graphs but asks for %d", novel, freshA)
	}
}

func TestPercentileRule(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{99, 0}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q2, q3 := quartiles(v[:10]); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want Python's 2.75 5.5 8.25", q1, q2, q3)
	}
}

// stallTarget answers at once, except that its first request takes stall.
type stallTarget struct {
	stall time.Duration
	calls int
}

func (s *stallTarget) do(string, []byte) (int, []byte, error) {
	if s.calls++; s.calls == 1 {
		time.Sleep(s.stall)
	}
	return 200, []byte(`{"latency_ms":1}`), nil
}

func TestStallChargesQueuedRequests(t *testing.T) {
	const gap, stall = 5 * time.Millisecond, 60 * time.Millisecond
	p := &plan{items: []item{{body: []byte("{}")}}, open: true}
	for i := 0; i < 8; i++ {
		p.reqs = append(p.reqs, request{path: "/query", due: time.Duration(i) * gap})
	}
	load := runLoad(p, []target{&stallTarget{stall: stall}}, time.Second, nil, 0)
	if len(load.samples) != len(p.reqs) {
		t.Fatalf("%d samples for %d requests", len(load.samples), len(p.reqs))
	}
	for i := 1; i < len(load.samples); i++ {
		s := &load.samples[i]
		service := s.done - s.sent
		queued := stall - time.Duration(i)*gap // what the stall cost this request
		if s.latency() < queued {
			t.Errorf("request %d: latency %v does not include the %v it queued behind the stall", i, s.latency(), queued)
		}
		if service > stall/2 {
			t.Errorf("request %d: service time %v, the fake answers at once", i, service)
		}
		if s.late > 3*time.Millisecond {
			t.Errorf("request %d: generator lateness %v counts time the target, not the generator, was busy", i, s.late)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},  // overlaps a: 10..60 is covered once
		{Name: "c", Parent: 0, Start: 90, End: 120}, // runs past its parent: only 90..100 counts
		{Name: "a1", Parent: 1, Start: 15, End: 20},
	}
	selfTimes(spans)
	for i, want := range []int64{100 - 50 - 10, 30 - 5, 30, 30, 5} {
		if spans[i].Self != want {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, spans[i].Self, want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lat := metricSpec{"latency_p50_ms", "ms", lower, 0.10}
	rps := metricSpec{"throughput_rps", "1/s", higher, 0.10}
	for _, c := range []struct {
		m    metricSpec
		a, b []float64
		want string
	}{
		{lat, []float64{1.00, 1.01, 1.02}, []float64{1.03, 1.04, 1.05}, "ok"},
		{lat, []float64{1.00, 1.01, 1.02}, []float64{1.20, 1.21, 1.22}, "worse"},
		{rps, []float64{100, 101, 102}, []float64{80, 81, 82}, "worse"},
		{rps, []float64{100, 101, 102}, []float64{120, 121, 122}, "ok"},
		{lat, []float64{0.8, 1.0, 1.3}, []float64{0.9, 1.0, 1.2}, "unresolved"},
		{lat, []float64{1.0, 1.2, 1.5}, []float64{0.5, 0.7, 0.9}, "ok"}, // noisy, but every run better
	} {
		if _, _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecMatchesBenchmarkJSON: the file the driver reads declares exactly
// the workloads and metrics the program knows, within the contract's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want any) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		if !bytes.Equal(g, w) {
			t.Errorf("%s in BENCHMARK.json differ from spec.go:\n file %s\n spec %s", what, g, w)
		}
	}
	same("workloads", file.Workloads, workloadSpecs)
	same("end_to_end", file.EndToEnd, endToEnd)
	same("per_layer", file.PerLayer, perLayer)
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program defaults to %d", file.RunSeconds, defaultSeconds)
	}
	same("command", file.Command, []string{"go", "run", "./benchmark"})
	same("paths", file.Paths, []string{"benchmark"})

	names := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if names[name] {
			t.Errorf("name %q is used twice", name)
		}
		names[name] = true
	}
	for _, w := range workloadSpecs {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
		if workloadByName(w.Name) == nil {
			t.Errorf("workload %s is declared but not implemented", w.Name)
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range perLayer {
		check(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
}

// TestEveryDeclaredMetricIsEmitted reads run.go for the names it sets:
// runResult.set panics on a name spec.go lacks, and this catches a name
// spec.go has that no code reports.
func TestEveryDeclaredMetricIsEmitted(t *testing.T) {
	src, err := os.ReadFile("run.go")
	if err != nil {
		t.Fatal(err)
	}
	emitted := map[string]bool{}
	for _, m := range regexp.MustCompile(`res\.set\("([^"]+)"`).FindAllSubmatch(src, -1) {
		emitted[string(m[1])] = true
	}
	declared := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		declared[m.Name] = true
		if !emitted[m.Name] {
			t.Errorf("metric %s is declared but run.go never sets it", m.Name)
		}
	}
	for name := range emitted {
		if !declared[name] {
			t.Errorf("run.go sets %s, which spec.go does not declare", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("setting an undeclared metric did not panic")
		}
	}()
	(&runResult{Metrics: map[string]value{}}).set("no.such_metric", 1)
}
