package server

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"nnlqp/internal/slo"
)

// Admission control (DESIGN.md §14). Under overload the serving path must
// shed rather than queue unboundedly: a token bucket caps the sustained
// admission rate (with a burst allowance), and when the bucket runs dry a
// small bounded queue holds waiters in deadline-urgency order — an
// interactive request is always granted the next token ahead of queued
// best-effort traffic. Requests that cannot be queued (queue full, queueing
// disabled, or the caller's context expires while waiting) are shed with a
// ShedError carrying a Retry-After hint, which the HTTP layer turns into
// 429 + Retry-After.
//
// The accounting invariant is exact: every Admit call increments Requests
// and exactly one of Admitted or Shed on exit, so
// Requests = Admitted + Shed always holds.

// AdmissionConfig tunes the admission controller. Zero values select the
// defaults noted per field.
type AdmissionConfig struct {
	// Rate is the sustained admission rate in requests/second (required,
	// > 0 — there is no default: enabling admission without a rate is a
	// configuration error).
	Rate float64
	// Burst is the bucket capacity in requests (default max(1, Rate/10)):
	// how far above the sustained rate a short spike may go.
	Burst float64
	// QueueCap bounds how many over-rate requests may wait for a token
	// (default 0 = shed immediately when the bucket is dry).
	QueueCap int
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.Burst <= 0 {
		c.Burst = math.Max(1, c.Rate/10)
	}
	if c.Burst < 1 {
		c.Burst = 1
	}
	if c.QueueCap < 0 {
		c.QueueCap = 0
	}
	return c
}

// ShedError is returned by Admit when a request is refused: the server is
// over its admission rate and the request could not (or would not) wait.
// RetryAfter estimates when capacity frees up.
type ShedError struct {
	RetryAfter time.Duration
	// Cause is non-nil when the request was queued but its context expired
	// before a token was granted.
	Cause error
}

func (e *ShedError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("admission: shed while queued (%v); retry after %s", e.Cause, e.RetryAfter)
	}
	return fmt.Sprintf("admission: over rate, shed; retry after %s", e.RetryAfter)
}

// AdmitClassStats is the per-SLO-class admission outcome breakdown.
type AdmitClassStats struct {
	Admitted int64 `json:"admitted"`
	Shed     int64 `json:"shed"`
}

// AdmissionStats is a snapshot of the controller's counters.
type AdmissionStats struct {
	// Requests = Admitted + Shed, exactly.
	Requests int64
	Admitted int64
	Shed     int64
	// Queued counts admitted requests that had to wait for a token first
	// (a subset of Admitted + the queued-then-shed portion of Shed).
	Queued    int64
	QueuedNow int
	ByClass   map[slo.Class]AdmitClassStats
}

// admitWaiter is one queued over-rate request.
type admitWaiter struct {
	urgency int
	seq     uint64 // FIFO tiebreak within one urgency level
	index   int    // heap position, -1 once popped/removed
}

// admitHeap orders waiters by (urgency, arrival): the most urgent, oldest
// waiter is on top and receives the next token.
type admitHeap []*admitWaiter

func (h admitHeap) Len() int { return len(h) }
func (h admitHeap) Less(i, j int) bool {
	if h[i].urgency != h[j].urgency {
		return h[i].urgency < h[j].urgency
	}
	return h[i].seq < h[j].seq
}
func (h admitHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *admitHeap) Push(x any) {
	w := x.(*admitWaiter)
	w.index = len(*h)
	*h = append(*h, w)
}
func (h *admitHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.index = -1
	*h = old[:n-1]
	return w
}

// Admission is the token-bucket + urgency-queue controller.
type Admission struct {
	mu    sync.Mutex
	cond  *sync.Cond
	cfg   AdmissionConfig
	clock clock

	tokens float64
	last   time.Time
	queue  admitHeap
	seq    uint64

	requests int64
	admitted int64
	shed     int64
	queued   int64
	byClass  map[slo.Class]*AdmitClassStats
}

// NewAdmission builds a controller; the bucket starts full (cold-start
// traffic up to Burst is admitted immediately).
func NewAdmission(cfg AdmissionConfig) *Admission {
	return newAdmission(cfg, wallClock{})
}

func newAdmission(cfg AdmissionConfig, clk clock) *Admission {
	cfg = cfg.withDefaults()
	a := &Admission{
		cfg:     cfg,
		clock:   clk,
		tokens:  cfg.Burst,
		last:    clk.Now(),
		byClass: make(map[slo.Class]*AdmitClassStats),
	}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// refillLocked accrues tokens for the time elapsed since the last refill,
// capped at the burst size.
func (a *Admission) refillLocked(now time.Time) {
	dt := now.Sub(a.last).Seconds()
	if dt > 0 {
		a.tokens = math.Min(a.cfg.Burst, a.tokens+dt*a.cfg.Rate)
		a.last = now
	}
}

// retryAfterLocked estimates when a newly arriving request would find
// capacity: the time for the bucket to accrue one token per queued waiter
// ahead of it plus its own, floored at one second (429 semantics: "back
// off", not "hammer every millisecond").
func (a *Admission) retryAfterLocked() time.Duration {
	need := float64(len(a.queue)) + 1 - a.tokens
	if need < 1 {
		need = 1
	}
	d := time.Duration(need / a.cfg.Rate * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	return d.Round(time.Second)
}

// classStatsLocked returns the mutable per-class bucket for c.
func (a *Admission) classStatsLocked(c slo.Class) *AdmitClassStats {
	s := a.byClass[c]
	if s == nil {
		s = &AdmitClassStats{}
		a.byClass[c] = s
	}
	return s
}

// Admit gates one request of the given class. nil means admitted; a
// *ShedError means refused (the HTTP layer answers 429 with the embedded
// Retry-After). Over-rate requests wait in the bounded urgency queue while
// ctx allows; the most urgent queued request is granted each token as it
// accrues.
func (a *Admission) Admit(ctx context.Context, class slo.Class) error {
	a.mu.Lock()
	a.requests++
	a.refillLocked(a.clock.Now())

	// Fast path: a token is available and nobody more deserving is queued.
	// (Any queued waiter has priority over a new arrival — even a less
	// urgent one: it has been waiting, and granting fresh arrivals first
	// would starve the queue.)
	if len(a.queue) == 0 && a.tokens >= 1 {
		a.tokens--
		a.admitted++
		a.classStatsLocked(class).Admitted++
		a.mu.Unlock()
		return nil
	}
	if len(a.queue) >= a.cfg.QueueCap {
		a.shed++
		a.classStatsLocked(class).Shed++
		err := &ShedError{RetryAfter: a.retryAfterLocked()}
		a.mu.Unlock()
		return err
	}

	// Queue in urgency order and wait for a token grant.
	w := &admitWaiter{urgency: class.Urgency(), seq: a.seq}
	a.seq++
	heap.Push(&a.queue, w)
	a.queued++
	stop := context.AfterFunc(ctx, func() {
		a.mu.Lock()
		a.cond.Broadcast()
		a.mu.Unlock()
	})
	defer stop()
	for {
		if err := ctx.Err(); err != nil {
			if w.index >= 0 {
				heap.Remove(&a.queue, w.index)
			}
			a.shed++
			a.classStatsLocked(class).Shed++
			serr := &ShedError{RetryAfter: a.retryAfterLocked(), Cause: err}
			// Our departure may have promoted a new head waiter; wake the
			// queue so it re-arms the token timer.
			a.cond.Broadcast()
			a.mu.Unlock()
			return serr
		}
		a.refillLocked(a.clock.Now())
		if w.index == 0 && a.tokens >= 1 {
			a.tokens--
			heap.Pop(&a.queue)
			a.admitted++
			a.classStatsLocked(class).Admitted++
			// The next head waiter must wake to arm its own token timer.
			a.cond.Broadcast()
			a.mu.Unlock()
			return nil
		}
		if w.index == 0 {
			// Head of the queue with no token yet: arm a timer for when the
			// next token accrues, then sleep. Everyone else just sleeps —
			// the head's grant (or departure) broadcasts.
			wait := time.Duration((1 - a.tokens) / a.cfg.Rate * float64(time.Second))
			if wait < time.Millisecond {
				wait = time.Millisecond
			}
			t := a.clock.AfterFunc(wait, func() {
				a.mu.Lock()
				a.cond.Broadcast()
				a.mu.Unlock()
			})
			a.cond.Wait()
			t.Stop()
			continue
		}
		a.cond.Wait()
	}
}

// Stats snapshots the admission counters.
func (a *Admission) Stats() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := AdmissionStats{
		Requests:  a.requests,
		Admitted:  a.admitted,
		Shed:      a.shed,
		Queued:    a.queued,
		QueuedNow: len(a.queue),
		ByClass:   make(map[slo.Class]AdmitClassStats, len(a.byClass)),
	}
	for c, s := range a.byClass {
		st.ByClass[c] = *s
	}
	return st
}
