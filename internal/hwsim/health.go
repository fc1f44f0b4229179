package hwsim

import (
	"time"

	"nnlqp/internal/breaker"
)

// Device health: every measurement outcome feeds the device's breaker (see
// internal/breaker). A device whose EWMA success score sinks below the
// threshold is pulled from the pool for a doubling backoff window, then handed
// out again on probation. This keeps a single wedged board from eating the
// retry budget of every query while still letting recovered hardware rejoin
// the fleet automatically.

// Quarantine window defaults; override with SetQuarantinePolicy.
const (
	DefaultQuarantineBase = 2 * time.Second
	DefaultQuarantineMax  = 60 * time.Second
)

// HealthPolicy configures when devices are quarantined and for how long.
type HealthPolicy = breaker.Policy

// SetQuarantinePolicy overrides the farm's health policy (zero fields keep
// their defaults). Safe to call while serving.
func (f *Farm) SetQuarantinePolicy(p HealthPolicy) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.policy = p.WithDefaults(DefaultQuarantineBase, DefaultQuarantineMax)
}

// healthOf returns (allocating on first use) a device's breaker. Callers
// must hold f.mu.
func (f *Farm) healthOf(deviceID string) *breaker.Breaker {
	h := f.health[deviceID]
	if h == nil {
		b := breaker.New()
		h = &b
		f.health[deviceID] = h
	}
	return h
}

// quarantinedLocked reports whether the device sits inside an unexpired
// quarantine window. Callers must hold f.mu.
func (f *Farm) quarantinedLocked(deviceID string, now time.Time) bool {
	h := f.health[deviceID]
	return h != nil && h.Open(now)
}

// reportResult folds one measurement outcome into the device's breaker.
// Failures that are not device-attributed (unsupported op, invalid model,
// caller cancellation) leave it untouched.
func (f *Farm) reportResult(d *Device, err error) {
	if err != nil && !IsRetryable(err) {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.healthOf(d.ID).Report(err == nil, f.policy, time.Now()) {
		f.quarantines++
		f.cond.Broadcast() // waiters in Acquire must re-check allQuarantinedLocked
	}
}

// Quarantine forces a device out of rotation for d (an admin hook, also
// used by tests to stage no-healthy-device scenarios).
func (f *Farm) Quarantine(deviceID string, d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.healthOf(deviceID).ForceOpen(time.Now().Add(d))
	f.quarantines++
	f.cond.Broadcast()
}

// allQuarantinedLocked reports whether every registered device of the
// platform is inside an unexpired quarantine window. Callers must hold f.mu.
func (f *Farm) allQuarantinedLocked(platform string, now time.Time) bool {
	devs := f.all[platform]
	if len(devs) == 0 {
		return false
	}
	for _, d := range devs {
		if !f.quarantinedLocked(d.ID, now) {
			return false
		}
	}
	return true
}

// earliestQuarantineExpiryLocked returns the soonest window end among the
// platform's currently quarantined idle devices. Callers must hold f.mu.
func (f *Farm) earliestQuarantineExpiryLocked(platform string, now time.Time) (time.Time, bool) {
	var earliest time.Time
	for _, d := range f.idle[platform] {
		if !f.quarantinedLocked(d.ID, now) {
			continue
		}
		if until := f.health[d.ID].OpenUntil(); earliest.IsZero() || until.Before(earliest) {
			earliest = until
		}
	}
	return earliest, !earliest.IsZero()
}

// HealthStats is a snapshot of the farm's fault-tolerance counters.
type HealthStats struct {
	// Quarantines counts quarantine events since construction.
	Quarantines int64
	// QuarantinedNow counts devices currently inside a quarantine window.
	QuarantinedNow int
}

// Health reports the farm's quarantine counters.
func (f *Farm) Health() HealthStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := time.Now()
	st := HealthStats{Quarantines: f.quarantines}
	for _, h := range f.health {
		if h.Open(now) {
			st.QuarantinedNow++
		}
	}
	return st
}

// HealthyDevices counts the platform's devices outside quarantine.
func (f *Farm) HealthyDevices(platform string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := time.Now()
	n := 0
	for _, d := range f.all[platform] {
		if !f.quarantinedLocked(d.ID, now) {
			n++
		}
	}
	return n
}
