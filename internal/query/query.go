// Package query implements NNLQ, the neural network latency query system
// (paper §5): automatic multi-platform deployment and measurement behind a
// single interface, with a database cache keyed by the graph hash so that
// repeated queries are served from accumulated latency knowledge.
//
// A query proceeds exactly as the paper describes: hash the model, look the
// (model, platform, batch) triple up in the evolving database, and on a
// miss run the measurement pipeline (model transformation → device
// acquisition → latency measurement) through the device farm, then store
// the fresh record for every future query.
//
// The serving path is built for concurrent multi-tenant traffic: every
// query carries a context.Context whose deadline/cancellation propagates
// into the device wait, and identical concurrent misses are coalesced by a
// single-flight layer so N callers racing on the same (graph, platform,
// batch) key trigger exactly one farm measurement — the other N−1 share the
// winner's result and are counted as Coalesced in Stats.
//
// Real wall-clock work in this reproduction is fast (the fleet is
// simulated), so each result also carries SimSeconds, the virtual
// wall-clock cost of what the step would have cost on the paper's
// infrastructure. The Table 2 experiment aggregates those.
package query

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"nnlqp/internal/db"
	"nnlqp/internal/graphhash"
	"nnlqp/internal/hwsim"
	"nnlqp/internal/onnx"
)

// Measurer abstracts the device farm; hwsim.LocalFarm and hwsim.RemoteFarm
// both satisfy it. Implementations must honour ctx while waiting for a
// device: a cancelled caller releases (or never consumes) its device slot.
type Measurer interface {
	Measure(ctx context.Context, platform string, g *onnx.Graph, holder string) (*hwsim.MeasureResult, error)
}

// Storage is the durable L2 tier the query path runs against — exactly the
// store operations serving needs, so the query system no longer owns a
// concrete *db.Store. A process can hand the same *db.Store (which satisfies
// this interface) to several serving cores, or swap in an alternative durable
// tier, without the query layer knowing. The reads are allocation-lean point
// lookups: an ID-only model resolution that skips the stored ONNX decode and
// a by-value latency read.
type Storage interface {
	InsertPlatform(name, hardware, software, dataType string) (*db.PlatformRecord, error)
	ModelIDByHash(key graphhash.Key) (uint64, bool, error)
	LatencyValue(modelID, platformID uint64, batch int) (db.LatencyRecord, bool, error)
	Record(g *onnx.Graph, platformID uint64, rec db.LatencyRecord) (modelID uint64, latencyMS float64, dup bool, err error)
	Counts() (models, platforms, latencies int)
}

// DeviceCounter is optionally implemented by farms that can report how many
// devices they hold for a platform; QueryMany uses it to size its worker
// pool. hwsim.LocalFarm and hwsim.RemoteFarm both implement it.
type DeviceCounter interface {
	Devices(platform string) int
}

// WaitTracker is optionally implemented by farms that track cumulative
// device-wait time; the serving layer surfaces it in /stats.
type WaitTracker interface {
	DeviceWaitSeconds() float64
}

// HealthTracker is optionally implemented by farms that quarantine
// misbehaving devices; the serving layer surfaces the counters in /stats.
type HealthTracker interface {
	QuarantineStats() (quarantines int64, quarantinedNow int)
}

// ResilienceTracker is implemented by ResilientFarm; the serving layer
// surfaces retry/hedge counters in /stats.
type ResilienceTracker interface {
	Counters() ResilienceCounters
}

// Fallback is the degradation target when the farm cannot measure before
// the deadline: a trained latency predictor (*core.Predictor satisfies it,
// as does serve.Engine).
type Fallback interface {
	Predict(g *onnx.Graph, platform string) (float64, error)
}

// ReadyReporter is optionally implemented by fallbacks whose predictor may
// not be loaded yet (serve.Engine before its first swap): a not-Ready
// fallback is treated exactly like no fallback, so installing an empty
// engine does not change degradation behaviour.
type ReadyReporter interface {
	Ready() bool
}

// GenerationPredictor is optionally implemented by fallbacks that can report
// which predictor generation computed an answer (serve.Engine); degraded
// results then carry the generation so /stats and callers can attribute the
// estimate to exact weights even across a concurrent hot-swap.
type GenerationPredictor interface {
	PredictWithGeneration(g *onnx.Graph, platform string) (float64, uint64, error)
}

// System is the NNLQ service: storage plus a device farm, fronted by an
// in-process L1 cache (see cache.go); the durable store is the L2 tier.
type System struct {
	store Storage
	farm  Measurer
	cache *Cache
	obs   *obsLog

	// platIDs memoizes platform name → row id. Platform rows are insert-only
	// (idempotent upsert, no delete path), so a resolved id stays valid for
	// the lifetime of the store and the steady-state L2 probe skips the
	// per-query upsert entirely.
	platMu  sync.RWMutex
	platIDs map[string]uint64

	mu       sync.Mutex
	stats    Stats
	fallback Fallback
	inflight map[string]*flight // single-flight by (hash, platform, batch)

	// storeFault is a package-local test seam: when set, it runs before the
	// durable write in storeMeasurement and a non-nil return is treated as a
	// storage failure. Set before serving traffic (not synchronized).
	storeFault func() error
}

// flight is one in-progress farm measurement shared by coalesced callers.
type flight struct {
	done        chan struct{} // closed when the leader finishes
	res         *hwsim.MeasureResult
	degraded    bool    // the leader fell back to the predictor
	degradedMS  float64 // predictor estimate shared with followers
	degradedGen uint64  // predictor generation behind degradedMS
	err         error
	followers   int // guarded by System.mu; callers that joined this flight
	// latencyMS is the leader's answer after storage reconciliation (a
	// concurrent writer that won the unique-key race may have adopted a
	// different stored value); followers report it so every coalesced caller
	// agrees with future hits. modelID/platformID are the database keys the
	// leader's store created; storeFailed mirrors Result.StoreFailed.
	latencyMS   float64
	modelID     uint64
	platformID  uint64
	storeFailed bool
}

// Stats counts cache behaviour since construction.
type Stats struct {
	Queries int
	Hits    int
	Misses  int
	// Coalesced counts queries that shared another in-flight measurement
	// instead of starting their own. Every query lands in exactly one bucket:
	// Queries = Hits + Misses + Coalesced + Failures.
	Coalesced int
	// Failures counts queries that returned an error — invalid models,
	// storage-probe errors, failed measurements, and coalesced callers whose
	// leader failed or whose context was cancelled while waiting. Counting
	// them keeps the bucket invariant exact on every exit path.
	Failures int
	// StoreFailures counts measurements that succeeded but whose durable
	// write failed. These queries still answer (Provenance "measured",
	// Result.StoreFailed set) and are counted in Misses; this counter is the
	// separate storage-health signal.
	StoreFailures int
	// DuplicateMeasurements counts stores that found the (model, platform,
	// batch) row already written by another measurement of the same graph:
	// work single-flight and the leader's re-check exist to prevent, so
	// anything above 0 is a coalescing gap.
	DuplicateMeasurements int
	// Degraded counts answers served from the fallback predictor because
	// the farm could not measure before the deadline (a subset of
	// Misses/Coalesced, not an extra bucket).
	Degraded int
	// InFlight is the number of queries currently being served.
	InFlight int
	// DeviceWaitSec is the cumulative time queries spent blocked waiting
	// for a device (0 unless the farm implements WaitTracker).
	DeviceWaitSec float64
	// Retries/Hedges/HedgeWins mirror the resilience wrapper's counters
	// (zero unless the farm is a ResilientFarm).
	Retries   int64
	Hedges    int64
	HedgeWins int64
	// Quarantines is the farm's cumulative quarantine events;
	// QuarantinedNow the devices currently benched (zero unless the farm
	// implements HealthTracker).
	Quarantines    int64
	QuarantinedNow int
	// L1Hits counts queries served from the in-process L1 tier — a subset
	// of Hits (the remainder were L2/database hits).
	L1Hits int
	// L1NegHits / L1Evictions / L1Size / L1Negatives mirror the L1 cache's
	// own counters (folded in by Stats()).
	L1NegHits   uint64
	L1Evictions uint64
	L1Size      int
	L1Negatives int
}

// HitRatio returns hits/queries (0 when no queries yet).
func (s Stats) HitRatio() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Queries)
}

// New builds a query system over a store and a farm, with a default-sized
// L1 cache (resize with ConfigureCache before serving).
func New(store Storage, farm Measurer) *System {
	return NewWith(store, farm, nil)
}

// NewWith builds a query system over an externally owned L1 cache (nil
// creates a default-sized one). This is the role-composition constructor: a
// storage role that owns both the durable store and the serving cache hands
// them over together, so cache ownership is explicit rather than buried in
// the query layer.
func NewWith(store Storage, farm Measurer, cache *Cache) *System {
	if cache == nil {
		cache = NewCache(0, 0)
	}
	return &System{
		store: store, farm: farm, cache: cache, obs: newObsLog(0),
		inflight: make(map[string]*flight), platIDs: make(map[string]uint64),
	}
}

// ConfigureCache replaces the L1 with one of the given capacity and negative
// TTL (zero values select the defaults). Call before serving traffic: the
// swap is not synchronized against in-flight queries. Role-based wiring
// should size the cache on the storage role (server.NewStorageRole) instead.
func (s *System) ConfigureCache(entries int, negTTL time.Duration) {
	s.cache = NewCache(entries, negTTL)
}

// Cache exposes the L1 tier (tests and the chaos harness inspect it).
func (s *System) Cache() *Cache { return s.cache }

// SetFallback installs (or, with nil, clears) the predictor used for
// graceful degradation when a platform has no healthy devices before the
// deadline. Degraded answers are marked "degraded" and never stored in the
// database.
func (s *System) SetFallback(f Fallback) {
	s.mu.Lock()
	s.fallback = f
	s.mu.Unlock()
}

func (s *System) getFallback() Fallback {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fallback
}

// Result is one latency query answer.
type Result struct {
	LatencyMS float64
	// Hit reports whether the record came from the database cache.
	Hit bool
	// Coalesced reports that this query shared a concurrent identical
	// query's measurement instead of running its own pipeline.
	Coalesced bool
	// Degraded reports that the farm could not measure before the deadline
	// and LatencyMS is the fallback predictor's estimate instead of a
	// measurement. Degraded answers are never stored in the database.
	Degraded bool
	// StoreFailed reports that the measurement succeeded but could not be
	// made durable: LatencyMS is a real measured value, but no database row
	// (and no L1 entry) backs it, so a repeat query will re-measure.
	StoreFailed bool
	// Generation is the predictor generation that computed a Degraded
	// answer (0 for measured/cached answers, or when the fallback cannot
	// report one). Predictor and generation are read atomically, so a
	// hot-swap racing this query can never mislabel the estimate.
	Generation uint64
	// Provenance labels where the answer came from: "cache", "measured",
	// "coalesced" or "degraded".
	Provenance string
	// Tier names the cache tier that answered a hit: "l1" (in-process) or
	// "l2" (durable database). Empty for non-hit answers.
	Tier string
	// ModelID / PlatformID are the database keys of the touched records.
	ModelID    uint64
	PlatformID uint64
	// SimSeconds is the virtual wall-clock cost of this query on the
	// paper's infrastructure: hash + DB round trip for hits, plus the full
	// compile/upload/measure pipeline for misses. Coalesced queries are
	// priced like hits: the pipeline ran once and is charged to the leader.
	SimSeconds float64
}

// hashCostSec prices graph hashing on the virtual clock ("the query
// requires calculating the graph hashing using CPU"): a fixed parse cost
// plus per-node work.
func hashCostSec(g *onnx.Graph) float64 {
	return 0.6 + 0.004*float64(len(g.Nodes))
}

// dbCostSec prices the remote database round trip.
const dbCostSec = 0.9

// l1CostSec prices an in-process L1 cache lookup (a sharded map probe on the
// serving host — no network, no storage engine).
const l1CostSec = 0.0005

// degradedCostSec prices a fallback prediction (a forward pass on the
// serving host — no compile/upload/measure pipeline).
const degradedCostSec = 0.05

// Query returns the true latency of g on the named platform, serving from
// the cache when possible and measuring (then caching) otherwise. The
// context bounds the whole pipeline, including the device wait: a cancelled
// caller returns promptly without leaking a device slot.
func (s *System) Query(ctx context.Context, g *onnx.Graph, platform string) (*Result, error) {
	s.begin()
	defer s.end()
	if err := g.Validate(); err != nil {
		s.countFailure()
		return nil, fmt.Errorf("query: invalid model: %w", err)
	}
	p, err := hwsim.PlatformByName(platform)
	if err != nil {
		s.countFailure()
		return nil, err
	}
	key, err := graphhash.GraphKey(g)
	if err != nil {
		s.countFailure()
		return nil, err
	}
	batch := g.BatchSize()
	ck := CacheKey{Hash: key, Platform: platform, Batch: batch}

	// L1 tier: a hit answers from process memory, skipping the database
	// round trip entirely (no platform upsert, no model/latency lookups).
	// Only durable measurements are ever written through, so an L1 answer
	// is always backed by a database row.
	v, l1hit, negSkip := s.cache.Get(ck)
	if l1hit {
		s.count(func(st *Stats) {
			st.Hits++
			st.L1Hits++
		})
		return &Result{
			LatencyMS: v.LatencyMS, Hit: true, Provenance: "cache", Tier: "l1",
			ModelID: v.ModelID, PlatformID: v.PlatformID,
			SimSeconds: hashCostSec(g) + l1CostSec,
		}, nil
	}

	res := &Result{SimSeconds: hashCostSec(g) + l1CostSec}

	// L2 tier: the durable store. An un-expired negative L1 entry means the
	// database was recently confirmed empty for this key, so a miss storm
	// proceeds straight to the farm without touching the database at all —
	// including the platform upsert that prefixes a durable probe: the whole
	// point of the negative entry is that no round trip is paid (or priced).
	// A flight leader that goes on to store its measurement performs the
	// deferred upsert at storage time (see storeMeasurement).
	var platformID uint64
	if !negSkip {
		res.SimSeconds += dbCostSec
		platformID, err = s.platformID(p)
		if err != nil {
			s.countFailure()
			return nil, err
		}
		res.PlatformID = platformID
		modelID, latency, hit, err := s.probeL2(key, platformID, batch)
		if err != nil {
			s.countFailure()
			return nil, err
		}
		res.ModelID = modelID
		if hit {
			res.Hit = true
			res.Provenance = "cache"
			res.Tier = "l2"
			res.LatencyMS = latency
			// Promote so repeats are served from memory.
			s.cache.Put(ck, CacheValue{LatencyMS: latency, ModelID: modelID, PlatformID: platformID})
			s.count(func(st *Stats) { st.Hits++ })
			return res, nil
		}
		// Confirmed absent: remember that so concurrent/retry traffic for
		// this key skips L2 until the TTL lapses or a measurement lands.
		s.cache.PutNegative(ck)
	}

	// Cache miss. Join an identical in-flight measurement if one exists;
	// otherwise become the leader and run the pipeline.
	fkey := fmt.Sprintf("%d|%s|%d", uint64(key), platform, batch)
	s.mu.Lock()
	if fl, ok := s.inflight[fkey]; ok {
		fl.followers++
		s.mu.Unlock()
		return s.awaitFlight(ctx, fl, res, platform)
	}
	fl := &flight{done: make(chan struct{})}
	s.inflight[fkey] = fl
	s.mu.Unlock()

	// A caller can reach an empty flight table after an earlier leader for
	// this key stored its row and retired: it missed L1 before the
	// write-through, or skipped or probed L2 before the row landed. Rows are
	// durable before their flight retires, so a second look at L2 finds any
	// measurement that is already done.
	if hit, err := s.recheck(ck, res); hit || err != nil {
		fl.err, fl.latencyMS, fl.modelID, fl.platformID = err, res.LatencyMS, res.ModelID, res.PlatformID
		s.retire(fkey, fl)
		if err != nil {
			s.countFailure()
			return nil, err
		}
		return res, nil
	}

	m, merr := s.farm.Measure(ctx, platform, g, "nnlq")
	degraded := false
	var degradedMS float64
	var degradedGen uint64
	var storeErr error
	if merr != nil && s.shouldDegrade(merr) {
		switch f := s.getFallback().(type) {
		case GenerationPredictor:
			if v, gen, perr := f.PredictWithGeneration(g, platform); perr == nil {
				degraded, degradedMS, degradedGen, merr = true, v, gen, nil
			}
		default:
			if v, perr := f.Predict(g, platform); perr == nil {
				degraded, degradedMS, merr = true, v, nil
			}
		}
	}
	switch {
	case merr == nil && !degraded:
		res.SimSeconds += m.PipelineSec
		res.LatencyMS = m.LatencyMS
		res.Provenance = "measured"
		if err := s.storeMeasurement(g, p, batch, m, res, ck); err != nil {
			// The measurement itself succeeded; only durability failed. Serve
			// the measured value — explicitly marked, never written through
			// to L1, so no cache entry outlives the missing row — instead of
			// failing this caller and every coalesced follower over a
			// storage hiccup. The failure is reported via StoreFailures.
			storeErr = err
			res.StoreFailed = true
		}
	case degraded:
		// The fleet could not answer before the deadline: serve the trained
		// predictor's estimate, explicitly marked, and keep it out of the
		// database so the cache never stores a guess as ground truth.
		res.SimSeconds += degradedCostSec
		res.LatencyMS = degradedMS
		res.Degraded = true
		res.Generation = degradedGen
		res.Provenance = "degraded"
	}
	// Publish to followers and retire the flight. The flight is removed
	// before done is closed and after the DB insert, so late arrivals
	// either join the flight, hit a tier, or find the row on their own
	// re-check as the next leader — never re-measure.
	fl.res, fl.degraded, fl.degradedMS, fl.degradedGen, fl.err = m, degraded, degradedMS, degradedGen, merr
	fl.latencyMS, fl.modelID, fl.platformID, fl.storeFailed = res.LatencyMS, res.ModelID, res.PlatformID, res.StoreFailed
	s.retire(fkey, fl)

	// Every miss that reached the farm is an observation: the active
	// measurement scheduler mines this log for graphs real traffic asked
	// about — especially ones that never got ground truth (degraded/failed).
	s.obs.record(g, platform, key, merr == nil && !degraded, degraded)

	if merr != nil {
		s.countFailure()
		return nil, fmt.Errorf("query: measurement on %s failed: %w", platform, merr)
	}
	s.count(func(st *Stats) {
		st.Misses++
		if degraded {
			st.Degraded++
		}
		if storeErr != nil {
			st.StoreFailures++
		}
	})
	return res, nil
}

// retire removes a finished flight and releases its followers.
func (s *System) retire(fkey string, fl *flight) {
	s.mu.Lock()
	delete(s.inflight, fkey)
	s.mu.Unlock()
	close(fl.done)
}

// recheck is a new flight leader's second look before it measures: an L2
// probe, even when the first look skipped L2 on a negative entry, since a
// small L1 may have evicted the row's entry already. L1 needs no second
// look: it only gains a positive entry after its row is durable, so the L2
// probe finds every finished measurement. A row found answers res as a hit.
// The L2 read needs the platform's row id, taken from res or the platIDs
// memo and never upserted: every leader that stores resolves its platform
// first, so an unknown platform has no rows to find. The second look is not
// priced on the virtual clock: it closes a race in this process, not a step
// of the paper's pipeline.
func (s *System) recheck(ck CacheKey, res *Result) (bool, error) {
	platformID := res.PlatformID
	if platformID == 0 {
		id, ok := s.knownPlatformID(ck.Platform)
		if !ok {
			return false, nil
		}
		platformID = id
	}
	modelID, latency, hit, err := s.probeL2(ck.Hash, platformID, ck.Batch)
	if err != nil || !hit {
		return false, err
	}
	res.Hit, res.Provenance, res.Tier = true, "cache", "l2"
	res.LatencyMS, res.ModelID, res.PlatformID = latency, modelID, platformID
	s.cache.Put(ck, CacheValue{LatencyMS: latency, ModelID: modelID, PlatformID: platformID})
	s.count(func(st *Stats) { st.Hits++ })
	return true, nil
}

// platformID resolves (registering on first sight) the platform's row id,
// memoized in platIDs. The first query for a platform pays the idempotent
// upsert; every later probe is a read-locked map hit, which is what lets the
// steady-state L2 read stay allocation-free.
func (s *System) platformID(p *hwsim.Platform) (uint64, error) {
	if id, ok := s.knownPlatformID(p.Name); ok {
		return id, nil
	}
	prec, err := s.store.InsertPlatform(p.Name, p.Hardware, p.Software, p.DType)
	if err != nil {
		return 0, err
	}
	s.platMu.Lock()
	s.platIDs[p.Name] = prec.ID
	s.platMu.Unlock()
	return prec.ID, nil
}

// knownPlatformID reads the platIDs memo without registering anything.
func (s *System) knownPlatformID(name string) (uint64, bool) {
	s.platMu.RLock()
	defer s.platMu.RUnlock()
	id, ok := s.platIDs[name]
	return id, ok
}

// probeL2 performs the single-row (graph_hash, platform, batch) read that
// every L1 miss pays: an ID-only model lookup (no stored-ONNX decode) and a
// by-value latency read on a stack-rendered key. A found model with no
// latency row still reports its modelID so the caller can surface it on the
// miss result.
func (s *System) probeL2(key graphhash.Key, platformID uint64, batch int) (modelID uint64, latencyMS float64, hit bool, err error) {
	id, ok, err := s.store.ModelIDByHash(key)
	if err != nil || !ok {
		return 0, 0, false, err
	}
	lv, ok, err := s.store.LatencyValue(id, platformID, batch)
	if err != nil || !ok {
		return id, 0, false, err
	}
	return id, lv.LatencyMS, true, nil
}

// shouldDegrade decides whether a measurement failure is worth answering
// from the fallback predictor: the fleet being the problem (device faults,
// exhausted retries, a fully quarantined platform, an expired deadline)
// qualifies; the request being the problem (unsupported op, unknown
// platform, invalid model) or the caller having walked away does not.
func (s *System) shouldDegrade(err error) bool {
	f := s.getFallback()
	if f == nil {
		return false
	}
	if r, ok := f.(ReadyReporter); ok && !r.Ready() {
		return false
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	return hwsim.IsRetryable(err) ||
		errors.Is(err, hwsim.ErrAllQuarantined) ||
		errors.Is(err, context.DeadlineExceeded)
}

// awaitFlight blocks a coalesced caller on the leader's measurement. All
// waiters observe exactly the leader's outcome — including a degraded
// fallback answer or a measured-but-not-durable one. Every exit path counts
// the query exactly once, so the Stats bucket invariant holds even when the
// waiter's context is cancelled or the leader fails.
func (s *System) awaitFlight(ctx context.Context, fl *flight, res *Result, platform string) (*Result, error) {
	select {
	case <-ctx.Done():
		s.countFailure()
		return nil, ctx.Err()
	case <-fl.done:
	}
	if fl.err != nil {
		s.countFailure()
		return nil, fmt.Errorf("query: coalesced measurement on %s failed: %w", platform, fl.err)
	}
	res.Coalesced = true
	if fl.degraded {
		res.LatencyMS = fl.degradedMS
		res.Degraded = true
		res.Generation = fl.degradedGen
		res.Provenance = "degraded"
		s.count(func(st *Stats) {
			st.Coalesced++
			st.Degraded++
		})
		return res, nil
	}
	res.LatencyMS = fl.latencyMS
	res.Provenance = "coalesced"
	res.StoreFailed = fl.storeFailed
	if res.ModelID == 0 {
		res.ModelID = fl.modelID
	}
	if res.PlatformID == 0 {
		res.PlatformID = fl.platformID
	}
	s.count(func(st *Stats) { st.Coalesced++ })
	return res, nil
}

// storeMeasurement records the model and latency rows for a fresh
// measurement through the store's batched commit path (concurrent misses
// landing together share one WAL flush/fsync). A concurrent writer that
// won the unique-key race is reconciled by adopting the stored record, so
// this caller and all future hits report one latency, and counted in
// DuplicateMeasurements. Once the row is durable it is written through to
// the L1 tier — this is the only path that ever creates a positive L1
// entry, which is what keeps degraded (predictor-estimated) answers out of
// the cache by construction.
func (s *System) storeMeasurement(g *onnx.Graph, p *hwsim.Platform, batch int, m *hwsim.MeasureResult, res *Result, ck CacheKey) error {
	// A negative-cache skip deferred the platform upsert past the L2 probe;
	// the durable write needs the platform row, so perform — and price — that
	// round trip now.
	platformID := res.PlatformID
	if platformID == 0 {
		res.SimSeconds += dbCostSec
		pid, err := s.platformID(p)
		if err != nil {
			return err
		}
		platformID = pid
		res.PlatformID = platformID
	}
	if s.storeFault != nil {
		if err := s.storeFault(); err != nil {
			return err
		}
	}
	modelID, latency, dup, err := s.store.Record(g, platformID, db.LatencyRecord{
		BatchSize:    batch,
		LatencyMS:    m.LatencyMS,
		Runs:         m.Runs,
		PeakMemBytes: m.PeakMemBytes,
	})
	if dup {
		s.count(func(st *Stats) { st.DuplicateMeasurements++ })
	}
	if err != nil {
		return err
	}
	res.ModelID = modelID
	res.LatencyMS = latency
	s.cache.Put(ck, CacheValue{LatencyMS: latency, ModelID: modelID, PlatformID: platformID})
	return nil
}

// QueryMany measures a batch of models on one platform through a bounded
// worker pool, returning per-model results (input order preserved) and the
// total virtual cost. The pool width defaults to the farm's device count
// for the platform (see QueryManyWorkers). Per-model failures do not abort
// the batch: the corresponding result is nil and the joined error reports
// every failure.
func (s *System) QueryMany(ctx context.Context, graphs []*onnx.Graph, platform string) ([]*Result, float64, error) {
	return s.QueryManyWorkers(ctx, graphs, platform, 0)
}

// QueryManyWorkers is QueryMany with an explicit parallelism bound;
// workers <= 0 selects the default (the platform's device count, at least 1).
func (s *System) QueryManyWorkers(ctx context.Context, graphs []*onnx.Graph, platform string, workers int) ([]*Result, float64, error) {
	if workers <= 0 {
		workers = s.defaultWorkers(platform)
	}
	if workers > len(graphs) {
		workers = len(graphs)
	}
	if workers < 1 {
		workers = 1
	}

	out := make([]*Result, len(graphs))
	errs := make([]error, len(graphs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r, err := s.Query(ctx, graphs[i], platform)
				if err != nil {
					errs[i] = fmt.Errorf("model %d (%s): %w", i, graphs[i].Name, err)
					continue
				}
				out[i] = r
			}
		}()
	}
feed:
	for i := range graphs {
		select {
		case next <- i:
		case <-ctx.Done():
			for j := i; j < len(graphs); j++ {
				if errs[j] == nil {
					errs[j] = ctx.Err()
				}
			}
			break feed
		}
	}
	close(next)
	wg.Wait()

	var total float64
	for _, r := range out {
		if r != nil {
			total += r.SimSeconds
		}
	}
	return out, total, errors.Join(errs...)
}

// defaultWorkers sizes the QueryMany pool: one worker per device of the
// platform when the farm reports a count, else a small fixed pool.
func (s *System) defaultWorkers(platform string) int {
	if dc, ok := s.farm.(DeviceCounter); ok {
		if n := dc.Devices(platform); n > 0 {
			return n
		}
	}
	return 4
}

// Warm inserts a measured latency record directly (used to pre-populate the
// cache for hit-ratio experiments and to bulk-build datasets). It writes the
// durable L2 tier only: experiments that warm-then-query deliberately
// exercise database-hit behaviour, so pre-seeding L1 here would skew them.
func (s *System) Warm(g *onnx.Graph, platform string) error {
	p, err := hwsim.PlatformByName(platform)
	if err != nil {
		return err
	}
	m, err := s.farm.Measure(context.Background(), platform, g, "warm")
	if err != nil {
		return err
	}
	prec, err := s.store.InsertPlatform(p.Name, p.Hardware, p.Software, p.DType)
	if err != nil {
		return err
	}
	_, _, _, err = s.store.Record(g, prec.ID, db.LatencyRecord{
		BatchSize: g.BatchSize(), LatencyMS: m.LatencyMS, Runs: m.Runs, PeakMemBytes: m.PeakMemBytes,
	})
	return err
}

func (s *System) begin() {
	s.mu.Lock()
	s.stats.InFlight++
	s.mu.Unlock()
}

func (s *System) end() {
	s.mu.Lock()
	s.stats.InFlight--
	s.mu.Unlock()
}

// count applies one outcome to the counters (queries total plus the
// outcome-specific bucket). Every Query exit path goes through it exactly
// once — that is what keeps Queries = Hits + Misses + Coalesced + Failures
// an identity rather than an approximation.
func (s *System) count(bump func(*Stats)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Queries++
	bump(&s.stats)
}

// countFailure buckets an error-returning query.
func (s *System) countFailure() {
	s.count(func(st *Stats) { st.Failures++ })
}

// Stats returns a snapshot of the cache counters, folding in the farm's
// device-wait time, quarantine counters and retry/hedge counters when the
// farm tracks them.
func (s *System) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	if wt, ok := s.farm.(WaitTracker); ok {
		st.DeviceWaitSec = wt.DeviceWaitSeconds()
	}
	if ht, ok := s.farm.(HealthTracker); ok {
		st.Quarantines, st.QuarantinedNow = ht.QuarantineStats()
	}
	if rt, ok := s.farm.(ResilienceTracker); ok {
		c := rt.Counters()
		st.Retries, st.Hedges, st.HedgeWins = c.Retries, c.Hedges, c.HedgeWins
	}
	cs := s.cache.Stats()
	st.L1NegHits = cs.NegHits
	st.L1Evictions = cs.Evictions
	st.L1Size = cs.Size
	st.L1Negatives = cs.Negatives
	return st
}
