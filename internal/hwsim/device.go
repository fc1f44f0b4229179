package hwsim

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"nnlqp/internal/breaker"
	"nnlqp/internal/onnx"
	"nnlqp/internal/slo"
)

// Device is one physical board/card of a platform in the farm. The paper's
// NNLQ "manages various hardware devices through the RPC interface, and if
// there are idle devices for the target platform, the system acquires the
// control right of the device".
type Device struct {
	ID       string
	Platform *Platform
}

// Farm is the device pool: a set of devices per platform with
// acquire/release semantics. Acquire blocks until a device of the requested
// platform is idle or the caller's context is done, mirroring device
// contention in the real system.
type Farm struct {
	mu      sync.Mutex
	cond    *sync.Cond
	idle    map[string][]*Device // platform name -> idle devices
	all     map[string][]*Device
	held    map[string]string // device ID -> holder tag
	waitSec float64           // cumulative seconds callers spent blocked in Acquire
	// waiting counts blocked Acquire callers per platform and SLO urgency
	// level: a waiter defers to any queued waiter of a more urgent level on
	// the same platform, so an interactive request never waits behind queued
	// best-effort traffic for a device.
	waiting map[string]*[slo.NumUrgencies]int

	// Fault tolerance (health.go / fault.go).
	health      map[string]*breaker.Breaker
	policy      HealthPolicy
	quarantines int64
	faults      *FaultPlan
	faultState  map[string]*faultState
	connRNG     *rand.Rand
	connDrops   int
}

// NewFarm creates an empty farm.
func NewFarm() *Farm {
	f := &Farm{
		idle:       make(map[string][]*Device),
		all:        make(map[string][]*Device),
		held:       make(map[string]string),
		waiting:    make(map[string]*[slo.NumUrgencies]int),
		health:     make(map[string]*breaker.Breaker),
		faultState: make(map[string]*faultState),
		policy:     HealthPolicy{}.WithDefaults(DefaultQuarantineBase, DefaultQuarantineMax),
	}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// NewDefaultFarm creates a farm with `perPlatform` devices of every builtin
// platform.
func NewDefaultFarm(perPlatform int) *Farm {
	f := NewFarm()
	for _, p := range Platforms() {
		for i := 0; i < perPlatform; i++ {
			f.AddDevice(&Device{ID: fmt.Sprintf("%s#%d", p.Name, i), Platform: p})
		}
	}
	return f
}

// AddDevice registers a device with the farm (idle).
func (f *Farm) AddDevice(d *Device) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.all[d.Platform.Name] = append(f.all[d.Platform.Name], d)
	f.idle[d.Platform.Name] = append(f.idle[d.Platform.Name], d)
	f.cond.Broadcast()
}

// Devices returns the number of devices registered for a platform.
func (f *Farm) Devices(platform string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.all[platform])
}

// Idle returns the number of currently idle devices for a platform.
func (f *Farm) Idle(platform string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.idle[platform])
}

// Waiting returns how many Acquire callers are currently blocked waiting
// for a device of the platform (all urgency levels).
func (f *Farm) Waiting(platform string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	w := f.waiting[platform]
	if w == nil {
		return 0
	}
	n := 0
	for _, c := range w {
		n += c
	}
	return n
}

// WaitSeconds returns the cumulative wall-clock time callers have spent
// blocked in Acquire waiting for a device, across all platforms.
func (f *Farm) WaitSeconds() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.waitSec
}

// TryAcquire grabs an idle, non-quarantined device of the platform without
// blocking, returning nil when none is eligible.
func (f *Farm) TryAcquire(platform, holder string) *Device {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tryAcquireLocked(platform, holder, time.Now())
}

// tryAcquireLocked hands out the first idle device that is not inside an
// unexpired quarantine window. A device whose window has expired is handed
// out on probation: its next outcome decides rehabilitation vs. a doubled
// quarantine (see reportResult).
func (f *Farm) tryAcquireLocked(platform, holder string, now time.Time) *Device {
	q := f.idle[platform]
	for i, d := range q {
		if h := f.health[d.ID]; h != nil {
			if h.Open(now) {
				continue
			}
			h.Probe(now)
		}
		f.idle[platform] = append(q[:i], q[i+1:]...)
		f.held[d.ID] = holder
		return d
	}
	return nil
}

// moreUrgentWaitingLocked reports whether a waiter of a strictly more
// urgent SLO level is queued for the platform; less urgent arrivals defer
// the device to it.
func (f *Farm) moreUrgentWaitingLocked(platform string, urgency int) bool {
	w := f.waiting[platform]
	if w == nil {
		return false
	}
	for i := 0; i < urgency; i++ {
		if w[i] > 0 {
			return true
		}
	}
	return false
}

// Acquire blocks until a healthy device of the platform is idle or ctx is
// done. It returns an error immediately when the farm has no such devices at
// all, ErrAllQuarantined when every device of the platform sits inside an
// unexpired quarantine window (waiting would not help — degrade instead),
// and ctx.Err() when the context is cancelled while waiting; in those cases
// no device slot is consumed.
//
// Contended waits are served in deadline-urgency order: the caller's SLO
// class rides the context (slo.WithContext; untagged work is best-effort),
// and a freed device always goes to the most urgent class with a queued
// waiter. Within one class, waiters race exactly as before.
func (f *Farm) Acquire(ctx context.Context, platform, holder string) (*Device, error) {
	urgency := slo.FromContext(ctx).Urgency()
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.all[platform]) == 0 {
		return nil, fmt.Errorf("hwsim: farm has no devices for platform %q", platform)
	}
	if !f.moreUrgentWaitingLocked(platform, urgency) {
		if d := f.tryAcquireLocked(platform, holder, time.Now()); d != nil {
			return d, nil
		}
	}
	// Slow path: register as a waiter at our urgency level, then wait on the
	// cond until a release (or cancellation) wakes us. The AfterFunc takes
	// f.mu before broadcasting so the wakeup cannot slip between our
	// ctx.Err() check and cond.Wait().
	w := f.waiting[platform]
	if w == nil {
		w = new([slo.NumUrgencies]int)
		f.waiting[platform] = w
	}
	w[urgency]++
	defer func() {
		w[urgency]--
		// Our departure may unblock a less urgent waiter that was deferring
		// to us (whether we got a device or gave up).
		f.cond.Broadcast()
	}()
	stop := context.AfterFunc(ctx, func() {
		f.mu.Lock()
		f.cond.Broadcast()
		f.mu.Unlock()
	})
	defer stop()
	start := time.Now()
	defer func() { f.waitSec += time.Since(start).Seconds() }()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		now := time.Now()
		if !f.moreUrgentWaitingLocked(platform, urgency) {
			if d := f.tryAcquireLocked(platform, holder, now); d != nil {
				return d, nil
			}
		}
		if f.allQuarantinedLocked(platform, now) {
			return nil, fmt.Errorf("%w: platform %q has 0/%d healthy devices",
				ErrAllQuarantined, platform, len(f.all[platform]))
		}
		// A quarantine window expiring is a wake-up event with no Release to
		// broadcast it; arm a timer for the earliest expiry so an idle
		// device coming off quarantine is handed out promptly.
		if until, ok := f.earliestQuarantineExpiryLocked(platform, now); ok {
			t := time.AfterFunc(time.Until(until)+time.Millisecond, func() {
				f.mu.Lock()
				f.cond.Broadcast()
				f.mu.Unlock()
			})
			f.cond.Wait()
			t.Stop()
			continue
		}
		f.cond.Wait()
	}
}

// Release returns a device to the idle pool.
func (f *Farm) Release(d *Device) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.held, d.ID)
	f.idle[d.Platform.Name] = append(f.idle[d.Platform.Name], d)
	f.cond.Broadcast()
}

// MeasureResult is what a device returns for one measurement task.
type MeasureResult struct {
	LatencyMS    float64
	Runs         int
	PeakMemBytes int64
	NumKernels   int
	// PipelineSec is the virtual wall-clock cost of the full cold query
	// (compile + upload + runs), charged by the query system.
	PipelineSec float64
}

// MeasureOn performs the full pipeline on an acquired device: it is the
// farm-side implementation of NNLQ's step 1 (model transformation), step 2
// having already acquired the device, and step 3 (latency measurement).
func MeasureOn(d *Device, g *onnx.Graph) (*MeasureResult, error) {
	p := d.Platform
	m, err := p.Measure(g)
	if err != nil {
		return nil, err
	}
	return &MeasureResult{
		LatencyMS:    m.LatencyMS,
		Runs:         m.Runs,
		PeakMemBytes: m.PeakMemBytes,
		NumKernels:   m.NumKernels,
		PipelineSec:  p.MeasurePipelineSec(g, m.LatencyMS/1e3),
	}, nil
}
