package server

import "time"

// clock is the time source of the serving core's timed mechanisms: the
// admission token bucket and the /predict gather window. The server runs on
// wallClock; tests substitute a manual clock, so what they check is the
// mechanism's order of events, not how fast the host schedules goroutines.
type clock interface {
	Now() time.Time
	// AfterFunc runs f once d has passed, never on the calling goroutine.
	AfterFunc(d time.Duration, f func()) stopper
}

// stopper cancels a pending AfterFunc; Stop reports whether it did.
type stopper interface {
	Stop() bool
}

// wallClock is the real clock.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) AfterFunc(d time.Duration, f func()) stopper { return time.AfterFunc(d, f) }
