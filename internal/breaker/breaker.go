// Package breaker holds the two fault-handling mechanisms the serving path
// shares: Breaker, the EWMA health state machine that quarantines a
// misbehaving device (internal/hwsim) or ejects a failing replica
// (internal/cluster), and Budget, the retry token bucket that bounds how much
// extra load the measurement path (internal/query) and the router
// (internal/cluster) may add with retries.
//
// The package depends only on the standard library, so any layer can use it
// without an import cycle.
package breaker

import (
	"sync"
	"time"
)

// Decay is the EWMA weight a Breaker keeps on its score per outcome.
const Decay = 0.65

// DefaultThreshold is the score below which a Breaker trips.
const DefaultThreshold = 0.35

// Policy configures when a Breaker trips and for how long it stays open.
type Policy struct {
	// Threshold is the EWMA score below which the breaker trips.
	Threshold float64
	// Base/Max bound the exponential open window.
	Base, Max time.Duration
}

// WithDefaults fills zero fields: Threshold with DefaultThreshold and
// Base/Max with the caller's own defaults.
func (p Policy) WithDefaults(base, max time.Duration) Policy {
	if p.Threshold <= 0 {
		p.Threshold = DefaultThreshold
	}
	if p.Base <= 0 {
		p.Base = base
	}
	if p.Max <= 0 {
		p.Max = max
	}
	return p
}

// Breaker is one endpoint's health: every outcome folds into an EWMA success
// score, and a score that sinks below the policy threshold trips the breaker
// open for a backoff window that doubles on each trip, up to Policy.Max. Once
// the window expires the next use runs on probation: one success fully
// rehabilitates the endpoint, one failure trips it again with a doubled
// window.
//
// A Breaker is a plain value with no lock of its own; the caller guards it
// with the lock that already protects the endpoint it describes. Build one
// with New.
type Breaker struct {
	score     float64 // EWMA of success(1)/failure(0)
	openUntil time.Time
	backoff   time.Duration
	probation bool
}

// New returns a closed breaker with a perfect score.
func New() Breaker { return Breaker{score: 1} }

// Report folds one outcome into the score under policy p and reports whether
// it tripped the breaker open.
func (b *Breaker) Report(ok bool, p Policy, now time.Time) (tripped bool) {
	if ok {
		b.score = Decay*b.score + (1 - Decay)
		if b.probation {
			// The probe answered: full rehabilitation.
			b.probation = false
			b.backoff = 0
			b.score = 1
		}
		return false
	}
	b.score = Decay * b.score
	if !b.probation && b.score >= p.Threshold {
		return false
	}
	if b.backoff <= 0 {
		b.backoff = p.Base
	} else {
		b.backoff = min(2*b.backoff, p.Max)
	}
	b.openUntil = now.Add(b.backoff)
	b.probation = false
	b.score = 1 // the probation probe re-judges the endpoint from scratch
	return true
}

// ForceOpen holds the breaker open until the given time, leaving the score
// and the backoff as they are (an admin or test hook).
func (b *Breaker) ForceOpen(until time.Time) {
	b.openUntil = until
	b.probation = false
}

// Probe moves a breaker whose open window has expired onto probation and
// reports whether it did; it is a no-op on a closed or still-open breaker.
func (b *Breaker) Probe(now time.Time) bool {
	if b.openUntil.IsZero() || now.Before(b.openUntil) {
		return false
	}
	b.openUntil = time.Time{}
	b.probation = true
	return true
}

// Open reports whether now falls inside the open window.
func (b *Breaker) Open(now time.Time) bool { return now.Before(b.openUntil) }

// OpenUntil returns the end of the open window (zero when never opened or
// already probed).
func (b *Breaker) OpenUntil() time.Time { return b.openUntil }

// Score returns the EWMA success score.
func (b *Breaker) Score() float64 { return b.score }

// Probation reports whether the next outcome decides rehabilitation.
func (b *Breaker) Probation() bool { return b.probation }

// Budget is a retry token bucket shared by every call of one client: each
// retry (or hedge) spends a token, each first attempt that succeeds refunds a
// fraction of one, and an empty bucket makes callers fail fast instead of
// amplifying load on a struggling backend. Safe for concurrent use.
type Budget struct {
	mu       sync.Mutex
	tokens   float64
	capacity float64
	refill   float64
}

// NewBudget returns a full bucket of the given capacity that refunds refill
// tokens per success.
func NewBudget(capacity, refill float64) *Budget {
	return &Budget{tokens: capacity, capacity: capacity, refill: refill}
}

// Spend takes one token; false means the bucket is empty.
func (b *Budget) Spend() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Refund credits one success, up to the capacity.
func (b *Budget) Refund() {
	b.mu.Lock()
	b.tokens = min(b.tokens+b.refill, b.capacity)
	b.mu.Unlock()
}

// Tokens returns the tokens left.
func (b *Budget) Tokens() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}
