package breaker

import (
	"math"
	"testing"
	"time"
)

// TestBreakerTransitions walks one breaker through its whole state table on a
// fake clock: the failure count that trips it at the default decay and
// threshold, the doubling window clamped at Max, a probation success that
// fully rehabilitates, a probation failure that trips with a doubled window,
// and a forced open that keeps score and backoff.
func TestBreakerTransitions(t *testing.T) {
	p := Policy{}.WithDefaults(time.Second, 5*time.Second)
	if p.Threshold != 0.35 || p.Base != time.Second || p.Max != 5*time.Second {
		t.Fatalf("defaults = %+v", p)
	}
	t0 := time.Unix(1000, 0)
	now := t0
	b := New()

	type step struct {
		name string
		do   func() bool // returns Report's tripped, or the Probe result
		want bool
		// state after the step
		open      bool
		probation bool
		until     time.Duration // OpenUntil - t0; 0 = zero time
		score     float64       // checked when > 0
	}
	report := func(ok bool) func() bool { return func() bool { return b.Report(ok, p, now) } }
	probe := func() bool { return b.Probe(now) }
	at := func(d time.Duration, f func() bool) func() bool {
		return func() bool { now = t0.Add(d); return f() }
	}
	steps := []step{
		{name: "1st failure", do: report(false), score: 0.65},
		{name: "2nd failure", do: report(false), score: 0.65 * 0.65},
		{name: "3rd failure trips", do: report(false), want: true, open: true, until: time.Second, score: 1},
		{name: "probe inside the window", do: at(500*time.Millisecond, probe), open: true, until: time.Second},
		{name: "probe after the window", do: at(time.Second, probe), want: true, probation: true},
		{name: "probe again is a no-op", do: probe, probation: true},
		{name: "probation failure doubles", do: report(false), want: true, open: true, until: 3 * time.Second, score: 1},
		{name: "probe", do: at(3*time.Second, probe), want: true, probation: true},
		{name: "doubles again", do: report(false), want: true, open: true, until: 7 * time.Second},
		{name: "probe", do: at(7*time.Second, probe), want: true, probation: true},
		{name: "clamped at Max", do: report(false), want: true, open: true, until: 12 * time.Second},
		{name: "probe", do: at(12*time.Second, probe), want: true, probation: true},
		{name: "stays clamped", do: report(false), want: true, open: true, until: 17 * time.Second},
		{name: "probe", do: at(17*time.Second, probe), want: true, probation: true},
		{name: "probation success rehabilitates", do: report(true), score: 1},
		{name: "failure after rehab", do: report(false), score: 0.65},
		{name: "failure", do: report(false)},
		{name: "trip restarts at Base", do: report(false), want: true, open: true, until: 18 * time.Second},
		{name: "failure after the window, unprobed", do: at(20*time.Second, report(false)), until: 18 * time.Second, score: 0.65},
		{name: "forced open", do: func() bool { b.ForceOpen(t0.Add(30 * time.Second)); return false },
			open: true, until: 30 * time.Second, score: 0.65},
		{name: "probe after forced window", do: at(30*time.Second, probe), want: true, probation: true},
		{name: "failure doubles the kept backoff", do: report(false), want: true, open: true, until: 32 * time.Second},
	}
	for _, s := range steps {
		if got := s.do(); got != s.want {
			t.Fatalf("%s: returned %v, want %v", s.name, got, s.want)
		}
		if b.Open(now) != s.open || b.Probation() != s.probation {
			t.Fatalf("%s: open=%v probation=%v, want %v/%v", s.name, b.Open(now), b.Probation(), s.open, s.probation)
		}
		var until time.Time
		if s.until > 0 {
			until = t0.Add(s.until)
		}
		if !b.OpenUntil().Equal(until) {
			t.Fatalf("%s: open until %v, want %v", s.name, b.OpenUntil().Sub(t0), s.until)
		}
		if s.score > 0 && math.Abs(b.Score()-s.score) > 1e-12 {
			t.Fatalf("%s: score %v, want %v", s.name, b.Score(), s.score)
		}
	}
}

func TestBudget(t *testing.T) {
	b := NewBudget(2, 0.5)
	if !b.Spend() || !b.Spend() || b.Spend() {
		t.Fatal("a capacity-2 bucket must grant exactly two tokens")
	}
	b.Refund()
	if b.Spend() {
		t.Fatal("half a token must not grant a retry")
	}
	b.Refund()
	if !b.Spend() {
		t.Fatal("two refunds of 0.5 must grant one retry")
	}
	for i := 0; i < 10; i++ {
		b.Refund()
	}
	if got := b.Tokens(); got != 2 {
		t.Fatalf("tokens = %v, want clamped at capacity 2", got)
	}
}
