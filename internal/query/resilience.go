package query

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nnlqp/internal/breaker"
	"nnlqp/internal/hwsim"
	"nnlqp/internal/onnx"
)

// ResilientFarm wraps any Measurer with the fault-tolerance policy of
// serving systems like Clipper: per-attempt timeouts, capped exponential
// backoff with jitter, a token-bucket retry budget (so a melting fleet is
// not DDoSed by its own retries), and hedged re-dispatch — when an attempt
// outlives the observed p-th percentile of recent measurement latencies, a
// second attempt is launched on another device and the first answer wins.
//
// Device-level blame (health scoring, quarantine) lives in hwsim.Farm;
// this layer only decides how hard to try before giving up. Errors it
// cannot retry (unsupported op, unknown platform, a fully quarantined
// platform, caller cancellation) pass straight through so System.Query can
// classify — and possibly degrade — them.

// ResilienceConfig tunes the retry/hedge policy; zero fields take defaults.
type ResilienceConfig struct {
	// MaxAttempts bounds sequential attempts per call, first included
	// (default 3; 1 disables retries).
	MaxAttempts int
	// AttemptTimeout bounds each attempt, device wait included (default 10s;
	// <0 disables the per-attempt deadline).
	AttemptTimeout time.Duration
	// BackoffBase/BackoffMax bound the jittered exponential backoff between
	// attempts (defaults 25ms / 1s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// RetryBudget is the token bucket's capacity: every retry or hedge
	// spends one token, every successful first attempt refunds RetryRefill
	// tokens (defaults 16 / 0.25). An empty bucket fails fast.
	RetryBudget float64
	RetryRefill float64
	// HedgeDelay is the floor before a hedged second attempt is launched
	// (0 disables hedging until a latency profile exists).
	HedgeDelay time.Duration
	// HedgePercentile picks the observed attempt-latency percentile that
	// arms the hedge once enough samples exist (default 0.95; <0 disables
	// percentile arming).
	HedgePercentile float64
	// HedgeMax bounds extra hedged attempts per call (default 1).
	HedgeMax int
	// Seed makes backoff jitter reproducible in tests (0 = fixed default).
	Seed int64
}

func (c ResilienceConfig) withDefaults() ResilienceConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.AttemptTimeout == 0 {
		c.AttemptTimeout = 10 * time.Second
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = time.Second
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 16
	}
	if c.RetryRefill <= 0 {
		c.RetryRefill = 0.25
	}
	if c.HedgePercentile == 0 {
		c.HedgePercentile = 0.95
	}
	if c.HedgeMax <= 0 {
		c.HedgeMax = 1
	}
	return c
}

// ResilienceCounters is a snapshot of the wrapper's activity.
type ResilienceCounters struct {
	// Attempts counts every dispatched measurement attempt (incl. hedges).
	Attempts int64
	// Retries counts sequential re-attempts after a retryable failure.
	Retries int64
	// Hedges counts speculative second dispatches; HedgeWins how many of
	// them returned first with a usable result.
	Hedges    int64
	HedgeWins int64
	// BudgetExhausted counts calls that wanted to retry/hedge but found the
	// token bucket empty.
	BudgetExhausted int64
}

// ResilientFarm decorates a Measurer; it implements Measurer itself plus
// the optional WaitTracker/HealthTracker pass-throughs.
type ResilientFarm struct {
	inner  Measurer
	cfg    ResilienceConfig
	budget *breaker.Budget

	attempts, retries, hedges, hedgeWins, budgetExhausted atomic.Int64

	mu  sync.Mutex
	rng *rand.Rand
	// lat is a ring of recent successful attempt durations feeding the
	// hedge-delay percentile.
	lat  [128]time.Duration
	latN int
}

// NewResilientFarm wraps inner with the retry/hedge policy.
func NewResilientFarm(inner Measurer, cfg ResilienceConfig) *ResilientFarm {
	cfg = cfg.withDefaults()
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x5eed4fa7
	}
	return &ResilientFarm{
		inner:  inner,
		cfg:    cfg,
		budget: breaker.NewBudget(cfg.RetryBudget, cfg.RetryRefill),
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// Counters returns a snapshot of the retry/hedge counters.
func (rf *ResilientFarm) Counters() ResilienceCounters {
	return ResilienceCounters{
		Attempts:        rf.attempts.Load(),
		Retries:         rf.retries.Load(),
		Hedges:          rf.hedges.Load(),
		HedgeWins:       rf.hedgeWins.Load(),
		BudgetExhausted: rf.budgetExhausted.Load(),
	}
}

// observe records a successful attempt duration for the hedge percentile.
func (rf *ResilientFarm) observe(d time.Duration) {
	rf.mu.Lock()
	rf.lat[rf.latN%len(rf.lat)] = d
	rf.latN++
	rf.mu.Unlock()
}

// hedgeDelay computes when to arm the hedge for the next attempt: the
// configured percentile of recent attempt latencies once at least 8 samples
// exist, floored by HedgeDelay; before that, HedgeDelay alone (0 = hedging
// off).
func (rf *ResilientFarm) hedgeDelay() time.Duration {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	n := rf.latN
	if n > len(rf.lat) {
		n = len(rf.lat)
	}
	if n < 8 || rf.cfg.HedgePercentile < 0 {
		return rf.cfg.HedgeDelay
	}
	samples := make([]time.Duration, n)
	copy(samples, rf.lat[:n])
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	idx := int(rf.cfg.HedgePercentile * float64(n-1))
	d := samples[idx]
	if d < rf.cfg.HedgeDelay {
		d = rf.cfg.HedgeDelay
	}
	if d <= 0 {
		d = time.Millisecond
	}
	return d
}

// backoff returns the jittered exponential delay before retry n (n >= 1).
func (rf *ResilientFarm) backoff(n int) time.Duration {
	d := rf.cfg.BackoffBase << (n - 1)
	if d > rf.cfg.BackoffMax || d <= 0 {
		d = rf.cfg.BackoffMax
	}
	rf.mu.Lock()
	jitter := 0.5 + rf.rng.Float64() // 0.5x..1.5x
	rf.mu.Unlock()
	return time.Duration(float64(d) * jitter)
}

// Measure dispatches the measurement with retries and hedging. The parent
// context always wins: its cancellation/deadline is returned as-is, while a
// per-attempt deadline expiring (a wedged device) is retried elsewhere.
func (rf *ResilientFarm) Measure(ctx context.Context, platform string, g *onnx.Graph, holder string) (*hwsim.MeasureResult, error) {
	var lastErr error
	for attempt := 1; attempt <= rf.cfg.MaxAttempts; attempt++ {
		if attempt > 1 {
			if !rf.budget.Spend() {
				rf.budgetExhausted.Add(1)
				return nil, fmt.Errorf("resilience: retry budget exhausted after %d attempts: %w", attempt-1, lastErr)
			}
			rf.retries.Add(1)
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(rf.backoff(attempt - 1)):
			}
		}
		res, err := rf.hedgedAttempt(ctx, platform, g, holder)
		if err == nil {
			if attempt == 1 {
				rf.budget.Refund()
			}
			return res, nil
		}
		if perr := ctx.Err(); perr != nil {
			return nil, perr
		}
		if !hwsim.IsRetryable(err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("resilience: gave up after %d attempts: %w", rf.cfg.MaxAttempts, lastErr)
}

// hedgedAttempt runs one attempt under the per-attempt deadline, launching
// up to HedgeMax speculative duplicates once the hedge delay expires; the
// first success wins and the losers are cancelled.
func (rf *ResilientFarm) hedgedAttempt(ctx context.Context, platform string, g *onnx.Graph, holder string) (*hwsim.MeasureResult, error) {
	actx := ctx
	cancel := context.CancelFunc(func() {})
	if rf.cfg.AttemptTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, rf.cfg.AttemptTimeout)
	}
	defer cancel()

	maxLaunches := 1 + rf.cfg.HedgeMax
	type outcome struct {
		res   *hwsim.MeasureResult
		err   error
		hedge bool
		dur   time.Duration
	}
	ch := make(chan outcome, maxLaunches)
	launch := func(hedge bool, tag string) {
		rf.attempts.Add(1)
		start := time.Now()
		go func() {
			res, err := rf.inner.Measure(actx, platform, g, tag)
			ch <- outcome{res: res, err: err, hedge: hedge, dur: time.Since(start)}
		}()
	}
	launch(false, holder)
	launched, returned := 1, 0

	var hedgeTimer <-chan time.Time
	if d := rf.hedgeDelay(); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		hedgeTimer = t.C
	}

	var firstErr error
	for {
		select {
		case <-hedgeTimer:
			hedgeTimer = nil
			if launched < maxLaunches && rf.budget.Spend() {
				rf.hedges.Add(1)
				launch(true, holder+"+hedge")
				launched++
			}
		case o := <-ch:
			returned++
			if o.err == nil {
				if o.hedge {
					rf.hedgeWins.Add(1)
				}
				rf.observe(o.dur)
				return o.res, nil
			}
			if firstErr == nil {
				firstErr = o.err
			}
			if returned == launched {
				// Every launched attempt failed; hedging a known-failed
				// attempt is pointless — let the retry loop take over.
				return nil, firstErr
			}
		}
	}
}

// DeviceWaitSeconds passes through to the wrapped farm's wait tracker.
func (rf *ResilientFarm) DeviceWaitSeconds() float64 {
	if wt, ok := rf.inner.(WaitTracker); ok {
		return wt.DeviceWaitSeconds()
	}
	return 0
}

// QuarantineStats passes through to the wrapped farm's health tracker.
func (rf *ResilientFarm) QuarantineStats() (int64, int) {
	if ht, ok := rf.inner.(HealthTracker); ok {
		return ht.QuarantineStats()
	}
	return 0, 0
}
