package server

import (
	"sort"
	"sync"
	"testing"
	"time"
)

// manualClock is a clock that moves only when a test calls advance. Timers
// whose deadline advance reaches run on the advancing goroutine, in deadline
// order, after the clock's lock is released.
type manualClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*manualTimer
	armed  chan struct{} // closed, and replaced, whenever a timer is armed
}

type manualTimer struct {
	c  *manualClock
	at time.Time
	f  func()
}

func newManualClock() *manualClock {
	return &manualClock{now: time.Unix(1_700_000_000, 0), armed: make(chan struct{})}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) AfterFunc(d time.Duration, f func()) stopper {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &manualTimer{c: c, at: c.now.Add(d), f: f}
	c.timers = append(c.timers, t)
	close(c.armed)
	c.armed = make(chan struct{})
	return t
}

func (t *manualTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	for i, p := range t.c.timers {
		if p == t {
			t.c.timers = append(t.c.timers[:i], t.c.timers[i+1:]...)
			return true
		}
	}
	return false
}

// advance moves the clock forward by d and runs every timer now due.
func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	var due, rest []*manualTimer
	for _, t := range c.timers {
		if t.at.After(c.now) {
			rest = append(rest, t)
		} else {
			due = append(due, t)
		}
	}
	c.timers = rest
	c.mu.Unlock()
	sort.SliceStable(due, func(i, j int) bool { return due[i].at.Before(due[j].at) })
	for _, t := range due {
		t.f()
	}
}

// waitArmed blocks until at least n timers are pending. The wall-clock bound
// only turns a hang into a failure; nothing waits on it in a passing run.
func (c *manualClock) waitArmed(t *testing.T, n int) {
	t.Helper()
	fail := time.After(10 * time.Second)
	for {
		c.mu.Lock()
		pending, armed := len(c.timers), c.armed
		c.mu.Unlock()
		if pending >= n {
			return
		}
		select {
		case <-armed:
		case <-fail:
			t.Fatalf("%d timers armed after 10s, want %d", pending, n)
		}
	}
}
