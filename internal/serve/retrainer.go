package serve

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"nnlqp/internal/core"
	"nnlqp/internal/db"
	"nnlqp/internal/feats"
)

// TrainStore is the durable-tier surface the retrainer needs — snapshots and
// recent-record reads. *db.Store satisfies it; taking the interface keeps the
// retrainer wired to a storage role rather than owning a concrete store, so a
// serving process can hand the same store to several consumers (or a test can
// substitute a fake) without the retrainer knowing.
type TrainStore interface {
	FindPlatformByName(name string) (*db.PlatformRecord, bool, error)
	Platforms() ([]db.PlatformRecord, error)
	LatencyCount(platformID uint64) (int, error)
	RecentLatencies(platformID uint64, n int) ([]db.LatencyRecord, error)
	GetModel(id uint64) (*db.ModelRecord, bool, error)
	TrainingSnapshot(platformIDs ...uint64) (*db.TrainingSet, error)
}

// RetrainConfig controls the online retraining loop.
//
// The drift-trigger state machine (DESIGN.md §12):
//
//	idle ──count──▶ training ──validate──▶ swap ──▶ idle
//	  │  ──drift──▶    │                    └reject─▶ idle
//	  └─bootstrap─▶    └──error───────────────────▶ idle
//
// count fires when any platform accumulated MinNewRecords measurements since
// the last training run; drift fires when the live predictor's rolling MAPE
// over each platform's most recent DriftWindow records regresses past
// DriftMAPEFactor × its holdout MAPE at swap time; bootstrap fires when no
// predictor is installed and the database holds at least MinSamples records.
// A rejected candidate still consumes its trigger (the counts are advanced),
// so a plateaued database cannot spin the trainer hot.
type RetrainConfig struct {
	// Interval is the poll cadence of the background loop (Start).
	Interval time.Duration
	// MinNewRecords per platform since the last run arms the count trigger.
	MinNewRecords int
	// MinSamples is the smallest total training-set size worth training on.
	MinSamples int
	// HoldoutFrac is the validation split (core.SplitHoldout).
	HoldoutFrac float64
	// DriftWindow is how many recent records per platform the rolling-MAPE
	// drift probe scores.
	DriftWindow int
	// DriftMAPEFactor arms the drift trigger when rolling MAPE exceeds
	// holdout-MAPE-at-swap × factor.
	DriftMAPEFactor float64
	// Epochs / Hidden / Depth size the candidate predictor.
	Epochs int
	Hidden int
	Depth  int
	// Seed makes candidate training deterministic; each run offsets it by
	// the run counter so repeated retrains explore different shuffles.
	Seed int64
	// Workers caps gradient parallelism (<=0 = GOMAXPROCS).
	Workers int
	// Platforms restricts training to these platform names (empty =
	// every platform with records in the database).
	Platforms []string
}

// DefaultRetrainConfig returns the server's default online-retraining knobs.
func DefaultRetrainConfig() RetrainConfig {
	return RetrainConfig{
		Interval:        30 * time.Second,
		MinNewRecords:   50,
		MinSamples:      24,
		HoldoutFrac:     0.2,
		DriftWindow:     32,
		DriftMAPEFactor: 1.5,
		Epochs:          10,
		Hidden:          32,
		Depth:           2,
		Seed:            1,
	}
}

// WithDefaults returns a copy with every zero field set to its default.
func (c RetrainConfig) WithDefaults() RetrainConfig {
	d := DefaultRetrainConfig()
	if c.Interval <= 0 {
		c.Interval = d.Interval
	}
	if c.MinNewRecords <= 0 {
		c.MinNewRecords = d.MinNewRecords
	}
	if c.MinSamples <= 0 {
		c.MinSamples = d.MinSamples
	}
	if c.HoldoutFrac <= 0 || c.HoldoutFrac >= 1 {
		c.HoldoutFrac = d.HoldoutFrac
	}
	if c.DriftWindow <= 0 {
		c.DriftWindow = d.DriftWindow
	}
	if c.DriftMAPEFactor <= 1 {
		c.DriftMAPEFactor = d.DriftMAPEFactor
	}
	if c.Epochs <= 0 {
		c.Epochs = d.Epochs
	}
	if c.Hidden <= 0 {
		c.Hidden = d.Hidden
	}
	if c.Depth <= 0 {
		c.Depth = d.Depth
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// RetrainStatus is a snapshot of the retrainer's counters and last outcome.
type RetrainStatus struct {
	Runs              int64   `json:"runs"`
	Swaps             int64   `json:"swaps"`
	Rejects           int64   `json:"rejects"`
	CountTriggers     int64   `json:"count_triggers"`
	DriftTriggers     int64   `json:"drift_triggers"`
	BootstrapTriggers int64   `json:"bootstrap_triggers"`
	Training          bool    `json:"training"`
	LastTrigger       string  `json:"last_trigger,omitempty"`
	LastHoldoutMAPE   float64 `json:"last_holdout_mape,omitempty"`
	LastHoldoutAcc10  float64 `json:"last_holdout_acc10,omitempty"`
	LastRollingMAPE   float64 `json:"last_rolling_mape,omitempty"`
	// LastRollingPearson / LastCalibrationRatio are the drift probe's
	// companion figures over the same observe-predict window: correlation
	// catches a predictor whose ranking collapsed even while MAPE looks
	// tolerable, and the calibration ratio (mean predicted / mean true, 1.0 =
	// unbiased) catches a systematic scale drift MAPE averages away.
	LastRollingPearson   float64 `json:"last_rolling_pearson,omitempty"`
	LastCalibrationRatio float64 `json:"last_calibration_ratio,omitempty"`
	LastTrainSeconds     float64 `json:"last_train_seconds,omitempty"`
	LastError            string  `json:"last_error,omitempty"`
}

// Retrainer watches the evolving database and keeps the Engine's predictor
// fresh: when a drift trigger fires it trains a brand-new candidate on a
// consistent TrainingSnapshot off the hot path (the serving predictor is
// never fine-tuned in place — in-place training would expose torn weights to
// concurrent readers), validates it against a held-out split, and hot-swaps
// only when the candidate is at least as accurate as the incumbent on that
// same holdout.
type Retrainer struct {
	store  TrainStore
	engine *Engine
	cfg    RetrainConfig

	mu             sync.Mutex
	status         RetrainStatus
	trainedCounts  map[string]int // per-platform record count at last run
	swapMAPE       float64        // holdout MAPE of the live predictor at swap
	runSeed        int64          // increments per run for shuffle variety
	stopCh, doneCh chan struct{}
}

// NewRetrainer builds a retrainer over the store and engine. Call Start for
// the background loop, or CheckOnce to drive it manually (tests, CLIs).
func NewRetrainer(store TrainStore, engine *Engine, cfg RetrainConfig) *Retrainer {
	return &Retrainer{
		store:         store,
		engine:        engine,
		cfg:           cfg.WithDefaults(),
		trainedCounts: make(map[string]int),
	}
}

// Status snapshots the retrainer counters.
func (r *Retrainer) Status() RetrainStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status
}

// Start launches the background poll loop. Stop terminates it.
func (r *Retrainer) Start() {
	r.mu.Lock()
	if r.stopCh != nil {
		r.mu.Unlock()
		return
	}
	r.stopCh = make(chan struct{})
	r.doneCh = make(chan struct{})
	stop, done := r.stopCh, r.doneCh
	r.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(r.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			if _, err := r.CheckOnce(); err != nil {
				r.mu.Lock()
				r.status.LastError = err.Error()
				r.mu.Unlock()
			}
		}
	}()
}

// Stop terminates the background loop and waits for an in-flight run to
// finish (a half-trained candidate is simply discarded; the engine only ever
// observes complete, validated predictors).
func (r *Retrainer) Stop() {
	r.mu.Lock()
	stop, done := r.stopCh, r.doneCh
	r.stopCh, r.doneCh = nil, nil
	r.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// platformRecords pairs a platform with its current latency-record count.
type platformRecords struct {
	rec   db.PlatformRecord
	count int
}

// platforms resolves the training platform set: the configured names, or
// every platform the database has records for.
func (r *Retrainer) platforms() ([]platformRecords, error) {
	var recs []db.PlatformRecord
	if len(r.cfg.Platforms) > 0 {
		for _, name := range r.cfg.Platforms {
			p, ok, err := r.store.FindPlatformByName(name)
			if err != nil {
				return nil, err
			}
			if ok {
				recs = append(recs, *p)
			}
		}
	} else {
		all, err := r.store.Platforms()
		if err != nil {
			return nil, err
		}
		recs = all
	}
	out := make([]platformRecords, 0, len(recs))
	for _, p := range recs {
		n, err := r.store.LatencyCount(p.ID)
		if err != nil {
			return nil, err
		}
		if n > 0 {
			out = append(out, platformRecords{rec: p, count: n})
		}
	}
	return out, nil
}

// decideTrigger inspects the database and the live predictor and names the
// trigger that should fire ("" = stay idle). Caller does not hold r.mu.
func (r *Retrainer) decideTrigger(plats []platformRecords) (string, float64) {
	total := 0
	for _, p := range plats {
		total += p.count
	}
	if !r.engine.Ready() {
		if total >= r.cfg.MinSamples {
			return "bootstrap", 0
		}
		return "", 0
	}
	r.mu.Lock()
	counts := r.trainedCounts
	swapMAPE := r.swapMAPE
	r.mu.Unlock()
	// Run the drift probe on every poll once a predictor is live (not only
	// when a drift trigger could fire): rolling MAPE, Pearson correlation and
	// the calibration ratio are the continuous health signals /engine exposes,
	// and a manually loaded predictor (swapMAPE == 0) deserves them too.
	rolling, probed := math.NaN(), false
	if m, err := r.driftProbe(plats); err == nil {
		rolling, probed = m, !math.IsNaN(m)
	}
	for _, p := range plats {
		if p.count-counts[p.rec.Name] >= r.cfg.MinNewRecords {
			return fmt.Sprintf("count:%s", p.rec.Name), 0
		}
	}
	if swapMAPE > 0 && probed && rolling > swapMAPE*r.cfg.DriftMAPEFactor {
		return fmt.Sprintf("drift:%.1f%%>%.1f%%", rolling, swapMAPE*r.cfg.DriftMAPEFactor), rolling
	}
	return "", 0
}

// driftProbe scores the live predictor against the most recent DriftWindow
// records of every training platform — the continuous observe-predict probe.
// It records rolling MAPE (the drift-trigger input) together with the Pearson
// correlation and calibration ratio over the same window, and returns the
// rolling MAPE.
func (r *Retrainer) driftProbe(plats []platformRecords) (float64, error) {
	pred := r.engine.Current()
	if pred == nil {
		return math.NaN(), nil
	}
	heads := make(map[string]bool)
	for _, h := range pred.Platforms() {
		heads[h] = true
	}
	var truths, preds []float64
	for _, p := range plats {
		if !heads[p.rec.Name] {
			continue
		}
		recs, err := r.store.RecentLatencies(p.rec.ID, r.cfg.DriftWindow)
		if err != nil {
			return 0, err
		}
		for _, rec := range recs {
			mrec, ok, err := r.store.GetModel(rec.ModelID)
			if err != nil || !ok {
				continue
			}
			v, err := pred.Predict(mrec.Graph, p.rec.Name)
			if err != nil {
				continue
			}
			truths = append(truths, rec.LatencyMS)
			preds = append(preds, v)
		}
	}
	if len(truths) == 0 {
		return math.NaN(), nil
	}
	m := core.MAPE(truths, preds)
	pearson := core.Pearson(truths, preds)
	calib := core.Calibration(truths, preds)
	r.mu.Lock()
	r.status.LastRollingMAPE = m
	if !math.IsNaN(pearson) {
		r.status.LastRollingPearson = pearson
	}
	if !math.IsNaN(calib) {
		r.status.LastCalibrationRatio = calib
	}
	r.mu.Unlock()
	return m, nil
}

// TrainingSamples builds one training set from the store: every latency
// record of the named platforms, platform by platform in the order given and
// by insertion within each, from one snapshot, so a caller's holdout split
// is stable. Each model's graph is decoded and its features extracted once,
// shared by its samples on every platform (training clones features before
// normalizing them). A platform unknown to the store, or without latency
// records, is an error.
func TrainingSamples(store TrainStore, platforms []string) ([]core.Sample, error) {
	names := make(map[uint64]string, len(platforms))
	ids := make([]uint64, len(platforms))
	for i, name := range platforms {
		p, ok, err := store.FindPlatformByName(name)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("serve: platform %s has no records in the database", name)
		}
		names[p.ID], ids[i] = name, p.ID
	}
	ts, err := store.TrainingSnapshot(ids...)
	if err != nil {
		return nil, err
	}
	gfs := make(map[uint64]*feats.GraphFeatures)
	counts := make(map[uint64]int, len(ids))
	samples := make([]core.Sample, 0, len(ts.Records))
	for _, rec := range ts.Records {
		counts[rec.PlatformID]++
		plat := names[rec.PlatformID]
		if gf, ok := gfs[rec.ModelID]; ok {
			samples = append(samples, core.Sample{GF: gf, LatencyMS: rec.LatencyMS, Platform: plat})
			continue
		}
		mrec, ok := ts.Model(rec.ModelID)
		if !ok {
			return nil, fmt.Errorf("serve: latency record %d references missing model %d", rec.ID, rec.ModelID)
		}
		s, err := core.NewSample(mrec.Graph, rec.LatencyMS, plat)
		if err != nil {
			return nil, err
		}
		gfs[rec.ModelID] = s.GF
		samples = append(samples, s)
	}
	for i, id := range ids {
		if counts[id] == 0 {
			return nil, fmt.Errorf("serve: platform %s has no latency records in the database", platforms[i])
		}
	}
	return samples, nil
}

// candidateConfig sizes a fresh candidate predictor for one run.
func (r *Retrainer) candidateConfig(runSeed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Hidden = r.cfg.Hidden
	cfg.HeadHidden = r.cfg.Hidden
	cfg.Depth = r.cfg.Depth
	cfg.Epochs = r.cfg.Epochs
	cfg.Seed = r.cfg.Seed + runSeed
	cfg.Workers = r.cfg.Workers
	return cfg
}

// evalOn evaluates pred on the subset of samples whose platform it has a
// head for (an incumbent trained before a new platform appeared can still be
// compared fairly on the platforms it knows).
func evalOn(pred *core.Predictor, samples []core.Sample) (core.Metrics, bool) {
	heads := make(map[string]bool)
	for _, h := range pred.Platforms() {
		heads[h] = true
	}
	sub := make([]core.Sample, 0, len(samples))
	for _, s := range samples {
		if heads[s.Platform] {
			sub = append(sub, s)
		}
	}
	if len(sub) == 0 {
		return core.Metrics{}, false
	}
	m, err := pred.Evaluate(sub)
	if err != nil {
		return core.Metrics{}, false
	}
	return m, true
}

// CheckOnce runs one poll of the drift triggers and, when one fires, a full
// train → validate → swap/reject cycle. It returns whether a swap happened.
// The background loop calls it on every tick; tests and CLIs may drive it
// directly.
func (r *Retrainer) CheckOnce() (bool, error) {
	plats, err := r.platforms()
	if err != nil {
		return false, err
	}
	trigger, _ := r.decideTrigger(plats)
	if trigger == "" {
		return false, nil
	}
	r.mu.Lock()
	r.status.Runs++
	r.status.Training = true
	r.status.LastTrigger = trigger
	r.status.LastError = ""
	switch {
	case trigger == "bootstrap":
		r.status.BootstrapTriggers++
	case len(trigger) >= 5 && trigger[:5] == "count":
		r.status.CountTriggers++
	default:
		r.status.DriftTriggers++
	}
	r.runSeed++
	runSeed := r.runSeed
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.status.Training = false
		r.mu.Unlock()
	}()

	swapped, err := r.trainValidateSwap(plats, trigger, runSeed)
	if err != nil {
		r.mu.Lock()
		r.status.LastError = err.Error()
		r.mu.Unlock()
		return false, err
	}
	return swapped, nil
}

// trainValidateSwap is the training half of one run: snapshot → train a
// fresh candidate → validate on the holdout → swap only on improvement.
func (r *Retrainer) trainValidateSwap(plats []platformRecords, trigger string, runSeed int64) (bool, error) {
	start := time.Now()
	// Platform row-id order keeps the holdout split stable as platforms
	// appear.
	sorted := append([]platformRecords(nil), plats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].rec.ID < sorted[j].rec.ID })
	names := make([]string, len(sorted))
	for i, p := range sorted {
		names[i] = p.rec.Name
	}
	samples, err := TrainingSamples(r.store, names)
	if err != nil {
		return false, err
	}
	if len(samples) < r.cfg.MinSamples {
		return false, nil
	}
	train, holdout := core.SplitHoldout(samples, r.cfg.HoldoutFrac)
	cand := core.New(r.candidateConfig(runSeed))
	if err := cand.Fit(train); err != nil {
		return false, err
	}
	var candM core.Metrics
	if len(holdout) > 0 {
		candM, err = cand.Evaluate(holdout)
		if err != nil {
			return false, err
		}
	}
	wall := time.Since(start)

	// Advance the trigger baseline whether or not the candidate ships:
	// a rejected candidate must not re-trigger on the same records forever.
	counts := make(map[string]int, len(plats))
	for _, p := range plats {
		counts[p.rec.Name] = p.count
	}

	// Validation gate: the incumbent (when there is one) is scored on the
	// same holdout; the candidate must be at least as good. NaN (empty or
	// degenerate holdout) swaps — there is nothing to compare against.
	if incumbent := r.engine.Current(); incumbent != nil && len(holdout) > 0 {
		if oldM, ok := evalOn(incumbent, holdout); ok && !math.IsNaN(oldM.MAPE) &&
			!math.IsNaN(candM.MAPE) && candM.MAPE > oldM.MAPE {
			r.engine.Reject()
			r.mu.Lock()
			r.status.Rejects++
			r.status.LastHoldoutMAPE = candM.MAPE
			r.status.LastHoldoutAcc10 = candM.Acc10
			r.status.LastTrainSeconds = wall.Seconds()
			r.trainedCounts = counts
			r.mu.Unlock()
			return false, nil
		}
	}

	r.engine.Swap(cand, candM, trigger)
	r.mu.Lock()
	r.status.Swaps++
	r.status.LastHoldoutMAPE = candM.MAPE
	r.status.LastHoldoutAcc10 = candM.Acc10
	r.status.LastTrainSeconds = wall.Seconds()
	r.trainedCounts = counts
	r.swapMAPE = candM.MAPE
	r.mu.Unlock()
	return true, nil
}
