package cluster

import (
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"nnlqp/internal/breaker"
)

// Replica health is the device farm's breaker (internal/breaker) with its own
// window defaults: every routed outcome feeds the replica's breaker, a tripped
// replica leaves the healthy set for a doubling backoff window and is then
// readmitted on probation. The background prober keeps scoring ejected
// replicas, so a restarted replica rejoins without any client traffic having
// to gamble on it.

// Ejection window defaults; override with Config.Health.
const (
	DefaultEjectBase = 500 * time.Millisecond
	DefaultEjectMax  = 30 * time.Second
)

// HealthPolicy configures when replicas are ejected and for how long.
type HealthPolicy = breaker.Policy

func healthDefaults(p HealthPolicy) HealthPolicy {
	return p.WithDefaults(DefaultEjectBase, DefaultEjectMax)
}

// Member is one backend replica the router can dispatch to.
type Member struct {
	name string // display name, unique within the membership
	addr string // host:port of the replica's HTTP listener
	seed uint64 // rendezvous seed, FNV-64a of name

	inflight       atomic.Int64 // requests this router currently has open
	remoteInFlight atomic.Int64 // in_flight gauge from the last /stats probe
	requests       atomic.Int64 // requests dispatched (including failed)
	failures       atomic.Int64 // dispatches blamed on the replica

	mu           sync.Mutex
	health       breaker.Breaker
	ejections    int64
	readmissions int64
	// policy is copied from the membership at Add so reportResult needs no
	// back-pointer.
	policy HealthPolicy
}

// NewMember builds a member for a replica at addr. name must be unique within
// a membership; it seeds the rendezvous ranking, so a member keeps its slice
// of the keyspace across router restarts.
func NewMember(name, addr string) *Member {
	h := fnv.New64a()
	h.Write([]byte(name))
	return &Member{
		name: name, addr: addr, seed: h.Sum64(),
		health: breaker.New(), policy: healthDefaults(HealthPolicy{}),
	}
}

// Name returns the member's display name.
func (m *Member) Name() string { return m.name }

// Load is the member's outstanding-request estimate: the router's own
// in-flight count plus the gauge the replica reported on its last probe.
func (m *Member) Load() int64 { return m.inflight.Load() + m.remoteInFlight.Load() }

// healthy reports whether the member is outside its ejection window.
func (m *Member) healthy(now time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.health.Open(now)
}

// reportResult folds one routed outcome into the member's breaker. ok=false
// means the failure is replica-attributed (network error, 5xx the replica
// should not emit); relayed client errors must not be reported.
func (m *Member) reportResult(ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.health.Report(ok, m.policy, time.Now()) {
		m.ejections++
	}
}

// maybeReadmit moves a member whose ejection window has expired onto
// probation. Called by the healthy-set scan; idempotent.
func (m *Member) maybeReadmit(now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.health.Probe(now) {
		m.readmissions++
	}
}

// MemberStatus is the wire form of one member's state in /cluster.
type MemberStatus struct {
	Name         string  `json:"name"`
	Addr         string  `json:"addr"`
	Healthy      bool    `json:"healthy"`
	Probation    bool    `json:"probation"`
	Score        float64 `json:"score"`
	InFlight     int64   `json:"in_flight"`
	RemoteLoad   int64   `json:"remote_in_flight"`
	Requests     int64   `json:"requests"`
	Failures     int64   `json:"failures"`
	Ejections    int64   `json:"ejections"`
	Readmissions int64   `json:"readmissions"`
}

// Status snapshots the member for /cluster.
func (m *Member) Status() MemberStatus {
	now := time.Now()
	m.mu.Lock()
	st := MemberStatus{
		Name:         m.name,
		Addr:         m.addr,
		Healthy:      !m.health.Open(now),
		Probation:    m.health.Probation(),
		Score:        m.health.Score(),
		Ejections:    m.ejections,
		Readmissions: m.readmissions,
	}
	m.mu.Unlock()
	st.InFlight = m.inflight.Load()
	st.RemoteLoad = m.remoteInFlight.Load()
	st.Requests = m.requests.Load()
	st.Failures = m.failures.Load()
	return st
}

// Membership is the router's replica set. Members can be added and removed
// while serving; Healthy also performs readmission (expired ejection windows
// flip to probation as a side effect of being observed).
type Membership struct {
	mu      sync.RWMutex
	members []*Member
	policy  HealthPolicy
}

// NewMembership builds an empty membership with the given health policy
// (zero fields take defaults).
func NewMembership(policy HealthPolicy) *Membership {
	return &Membership{policy: healthDefaults(policy)}
}

// Add registers a member. Adding a name that already exists replaces the old
// entry (a restarted replica re-registering keeps its keyspace slice).
func (ms *Membership) Add(m *Member) {
	m.mu.Lock()
	m.policy = ms.policy
	m.mu.Unlock()
	ms.mu.Lock()
	defer ms.mu.Unlock()
	for i, old := range ms.members {
		if old.name == m.name {
			ms.members[i] = m
			return
		}
	}
	ms.members = append(ms.members, m)
}

// Members snapshots the full membership, healthy or not.
func (ms *Membership) Members() []*Member {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	return append([]*Member(nil), ms.members...)
}

// Healthy snapshots the members outside their ejection windows, readmitting
// (onto probation) any whose window has expired.
func (ms *Membership) Healthy() []*Member {
	now := time.Now()
	ms.mu.RLock()
	all := append([]*Member(nil), ms.members...)
	ms.mu.RUnlock()
	out := make([]*Member, 0, len(all))
	for _, m := range all {
		m.maybeReadmit(now)
		if m.healthy(now) {
			out = append(out, m)
		}
	}
	return out
}
