package serve

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"nnlqp/internal/hwsim"
	"nnlqp/internal/models"
	"nnlqp/internal/onnx"
	"nnlqp/internal/query"
)

// ActiveConfig controls the active-measurement scheduler.
type ActiveConfig struct {
	// Interval is the tick cadence of the background loop.
	Interval time.Duration
	// PerTick caps how many (graph, platform) measurements one tick spends.
	PerTick int
	// Candidates is how many variant graphs each tick draws and scores.
	Candidates int
	// Platforms restricts measurement targets (empty = every simulator
	// platform the farm serves).
	Platforms []string
	// Families restricts candidate generation (empty = models.Families).
	Families []string
	// Seed makes candidate drawing deterministic.
	Seed int64
	// Timeout bounds each scheduled measurement.
	Timeout time.Duration
}

// DefaultActiveConfig returns the server's default active-measurement knobs.
func DefaultActiveConfig() ActiveConfig {
	return ActiveConfig{
		Interval:   15 * time.Second,
		PerTick:    2,
		Candidates: 8,
		Seed:       1,
		Timeout:    30 * time.Second,
	}
}

// WithDefaults returns a copy with every zero field set to its default.
func (c ActiveConfig) WithDefaults() ActiveConfig {
	d := DefaultActiveConfig()
	if c.Interval <= 0 {
		c.Interval = d.Interval
	}
	if c.PerTick <= 0 {
		c.PerTick = d.PerTick
	}
	if c.Candidates <= 0 {
		c.Candidates = d.Candidates
	}
	if len(c.Families) == 0 {
		c.Families = models.Families
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.Timeout <= 0 {
		c.Timeout = d.Timeout
	}
	return c
}

// IdleReporter reports spare measurement capacity for a platform. The
// hwsim farm implements it (hwsim.Farm.Idle); a nil reporter means the
// scheduler cannot see farm load and schedules unconditionally.
type IdleReporter interface {
	Idle(platform string) int
}

// ActiveStatus is a snapshot of the scheduler's counters.
type ActiveStatus struct {
	Ticks       int64 `json:"ticks"`
	Scheduled   int64 `json:"scheduled"`
	Measured    int64 `json:"measured"`
	Unsupported int64 `json:"unsupported"`
	Failures    int64 `json:"failures"`
	SkippedBusy int64 `json:"skipped_busy"`
	// LogCandidates / ZooCandidates count where scored candidates came from:
	// the query observation log (the workload's observed distribution) vs the
	// static model zoo (the cold-start fallback).
	LogCandidates int64  `json:"log_candidates"`
	ZooCandidates int64  `json:"zoo_candidates"`
	LastError     string `json:"last_error,omitempty"`
}

// Scheduler spends idle farm capacity on the measurements that teach the
// predictor the most: each tick it draws candidate variant graphs, scores
// them by predictor uncertainty — platform-head disagreement (coefficient of
// variation across PredictAll outputs) plus a kernel-family coverage bonus
// for families the database has rarely seen — and measures the top scorers
// through the query system, so the results land in the evolving database
// where the Retrainer picks them up.
type Scheduler struct {
	sys    *query.System
	engine *Engine
	idle   IdleReporter // may be nil
	cfg    ActiveConfig

	mu             sync.Mutex
	rng            *rand.Rand
	status         ActiveStatus
	famSeen        map[string]int // kernel families measured so far
	stopCh, doneCh chan struct{}
}

// NewScheduler builds an active-measurement scheduler. idle may be nil
// (no capacity gating). Call Start for the background loop or TickOnce to
// drive it manually.
func NewScheduler(sys *query.System, engine *Engine, idle IdleReporter, cfg ActiveConfig) *Scheduler {
	cfg = cfg.WithDefaults()
	return &Scheduler{
		sys:     sys,
		engine:  engine,
		idle:    idle,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		famSeen: make(map[string]int),
	}
}

// Status snapshots the scheduler counters.
func (a *Scheduler) Status() ActiveStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.status
}

// Start launches the background tick loop; Stop terminates it.
func (a *Scheduler) Start() {
	a.mu.Lock()
	if a.stopCh != nil {
		a.mu.Unlock()
		return
	}
	a.stopCh = make(chan struct{})
	a.doneCh = make(chan struct{})
	stop, done := a.stopCh, a.doneCh
	a.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(a.cfg.Interval)
		defer t.Stop()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() { <-stop; cancel() }()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			if err := a.TickOnce(ctx); err != nil && ctx.Err() == nil {
				a.mu.Lock()
				a.status.LastError = err.Error()
				a.mu.Unlock()
			}
		}
	}()
}

// Stop terminates the background loop, cancelling any in-flight measurement.
func (a *Scheduler) Stop() {
	a.mu.Lock()
	stop, done := a.stopCh, a.doneCh
	a.stopCh, a.doneCh = nil, nil
	a.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// candidate is a scored measurement proposal.
type candidate struct {
	graph *onnx.Graph
	score float64
}

// score computes the uncertainty score for one graph: the coefficient of
// variation of the per-platform head predictions (heads that disagree mark
// graphs the shared backbone does not represent well) plus a coverage bonus
// of 1/(1+seen) per kernel family in the graph (families the measurement
// history has rarely exercised). A graph the predictor cannot featurize
// scores the coverage bonus alone.
func (a *Scheduler) score(g *onnx.Graph) float64 {
	var s float64
	if pred := a.engine.Current(); pred != nil {
		var all map[string]float64
		gf, err := pred.Extract(g)
		if err == nil {
			all, err = pred.PredictAll(gf)
		}
		if err == nil && len(all) > 1 {
			var sum float64
			for _, v := range all {
				sum += v
			}
			mean := sum / float64(len(all))
			if mean > 0 {
				var varsum float64
				for _, v := range all {
					varsum += (v - mean) * (v - mean)
				}
				s += math.Sqrt(varsum/float64(len(all))) / mean
			}
		}
	}
	counts, _, err := hwsim.KernelFamilyStats([]*onnx.Graph{g})
	if err == nil {
		a.mu.Lock()
		for fam := range counts {
			s += 1 / float64(1+a.famSeen[fam])
		}
		a.mu.Unlock()
	}
	return s
}

// noteMeasured records a measured graph's kernel families so the coverage
// bonus decays for them.
func (a *Scheduler) noteMeasured(g *onnx.Graph) {
	counts, _, err := hwsim.KernelFamilyStats([]*onnx.Graph{g})
	if err != nil {
		return
	}
	a.mu.Lock()
	for fam := range counts {
		a.famSeen[fam]++
	}
	a.mu.Unlock()
}

// platforms resolves the measurement targets for one tick.
func (a *Scheduler) platforms() []string {
	if len(a.cfg.Platforms) > 0 {
		return a.cfg.Platforms
	}
	return hwsim.PlatformNames()
}

// logBonus weights candidates drawn from the query observation log over zoo
// variants: graphs real traffic asked about are worth more than synthetic
// ones, and graphs the database still has no ground truth for (degraded or
// failed queries) are worth the most — measuring them converts a served guess
// into a stored measurement.
const (
	logBonusObserved   = 0.5
	logBonusUnmeasured = 1.5
)

// drawCandidates assembles one tick's scored candidate pool for the target
// platform. Up to half the budget is drawn from the query log's observed
// distribution (most recent first, skipping graphs the L1 already holds
// ground truth for on the target); the remainder — the whole budget when the
// log is cold — comes from the static model zoo.
func (a *Scheduler) drawCandidates(target string) []candidate {
	cands := make([]candidate, 0, a.cfg.Candidates)
	var logDrawn, zooDrawn int64

	quota := (a.cfg.Candidates + 1) / 2
	seen := make(map[uint64]bool)
	for _, o := range a.sys.Observations(4 * a.cfg.Candidates) {
		if len(cands) >= quota {
			break
		}
		if seen[uint64(o.Hash)] || a.sys.CachedPositive(o.Graph, target) {
			continue
		}
		seen[uint64(o.Hash)] = true
		bonus := logBonusObserved
		if !o.Measured || o.Degraded {
			bonus = logBonusUnmeasured
		}
		cands = append(cands, candidate{graph: o.Graph, score: a.score(o.Graph) + bonus})
		logDrawn++
	}

	a.mu.Lock()
	rng := a.rng
	// Draw under the lock: rand.Rand is not goroutine-safe and Start's loop
	// may race a manual TickOnce call.
	type draw struct {
		fam  string
		seed int64
	}
	draws := make([]draw, a.cfg.Candidates-len(cands))
	for i := range draws {
		draws[i] = draw{fam: a.cfg.Families[rng.Intn(len(a.cfg.Families))], seed: rng.Int63()}
	}
	a.mu.Unlock()
	for _, d := range draws {
		g, err := models.Variant(d.fam, rand.New(rand.NewSource(d.seed)), 1)
		if err != nil {
			continue
		}
		cands = append(cands, candidate{graph: g, score: a.score(g)})
		zooDrawn++
	}

	a.mu.Lock()
	a.status.LogCandidates += logDrawn
	a.status.ZooCandidates += zooDrawn
	a.mu.Unlock()
	return cands
}

// TickOnce runs one scheduling round: pick the target platform, draw
// candidates from the query log's observed distribution (zoo fallback),
// score, and measure the top PerTick. It returns the first measurement error
// (unsupported-op rejections are counted, not returned — a simulator platform
// legitimately rejects some variants).
func (a *Scheduler) TickOnce(ctx context.Context) error {
	a.mu.Lock()
	a.status.Ticks++
	ticks := a.status.Ticks
	a.mu.Unlock()

	// Pick the platform with the most idle devices first (the log filter is
	// target-relative); with no reporter, rotate deterministically.
	plats := a.platforms()
	if len(plats) == 0 {
		return nil
	}
	target := plats[0]
	if a.idle != nil {
		best := -1
		for _, p := range plats {
			if n := a.idle.Idle(p); n > best {
				best, target = n, p
			}
		}
		if best <= 0 {
			a.mu.Lock()
			a.status.SkippedBusy++
			a.mu.Unlock()
			return nil
		}
	} else {
		target = plats[int(ticks)%len(plats)]
	}

	cands := a.drawCandidates(target)
	if len(cands) == 0 {
		return nil
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].score > cands[j].score })

	var firstErr error
	n := a.cfg.PerTick
	if n > len(cands) {
		n = len(cands)
	}
	for _, c := range cands[:n] {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		a.mu.Lock()
		a.status.Scheduled++
		a.mu.Unlock()
		mctx, cancel := context.WithTimeout(ctx, a.cfg.Timeout)
		_, err := a.sys.Query(mctx, c.graph, target)
		cancel()
		switch {
		case err == nil:
			a.mu.Lock()
			a.status.Measured++
			a.mu.Unlock()
			a.noteMeasured(c.graph)
		case isUnsupported(err):
			a.mu.Lock()
			a.status.Unsupported++
			a.mu.Unlock()
		default:
			a.mu.Lock()
			a.status.Failures++
			a.mu.Unlock()
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

func isUnsupported(err error) bool {
	var u *hwsim.UnsupportedOpError
	return errors.As(err, &u) || errors.Is(err, hwsim.ErrUnknownPlatform)
}
