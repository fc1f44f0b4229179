package query

import (
	"context"
	"testing"

	"nnlqp/internal/graphhash"
	"nnlqp/internal/hwsim"
	"nnlqp/internal/models"
)

// TestObsLogDedupAndBound: re-observing a pair refreshes in place (Seen,
// recency, flags) and the log never outgrows its capacity — oldest out first.
func TestObsLogDedupAndBound(t *testing.T) {
	l := newObsLog(3)
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))
	for i := 0; i < 5; i++ {
		l.record(g, "p", graphhash.Key(uint64(i)), true, false)
	}
	if len(l.snapshot(0)) != 3 {
		t.Fatalf("size = %d, want 3", len(l.snapshot(0)))
	}
	obs := l.snapshot(0)
	if len(obs) != 3 || obs[0].Hash != graphhash.Key(4) || obs[2].Hash != graphhash.Key(2) {
		t.Fatalf("snapshot order: %+v", obs)
	}

	// Dedup: same pair again bumps Seen and moves it to the front.
	l.record(g, "p", graphhash.Key(2), false, true)
	obs = l.snapshot(1)
	if obs[0].Hash != graphhash.Key(2) || obs[0].Seen != 2 {
		t.Fatalf("refreshed entry: %+v", obs[0])
	}
	// Measured is sticky; Degraded tracks the latest occurrence.
	if !obs[0].Measured || !obs[0].Degraded {
		t.Fatalf("flag merge: %+v", obs[0])
	}

	// Same hash, different platform = a distinct entry.
	l.record(g, "q", graphhash.Key(2), true, false)
	if len(l.snapshot(0)) != 3 {
		t.Fatalf("size after cross-platform record = %d", len(l.snapshot(0)))
	}
}

// TestSystemRecordsMissesNotHits: the observation log captures queries that
// reached the farm; cache hits are not re-recorded as fresh observations.
func TestSystemRecordsMissesNotHits(t *testing.T) {
	s := newSystem(t)
	g := models.BuildSqueezeNet(models.BaseSqueezeNet(1))

	if _, err := s.Query(context.Background(), g, hwsim.DatasetPlatform); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Observations(0)); n != 1 {
		t.Fatalf("observations after miss = %d, want 1", n)
	}
	obs := s.Observations(0)
	if !obs[0].Measured || obs[0].Degraded || obs[0].Seen != 1 {
		t.Fatalf("measured miss: %+v", obs[0])
	}
	if !s.CachedPositive(g, hwsim.DatasetPlatform) {
		t.Fatal("measured graph not visible to CachedPositive")
	}
	if s.CachedPositive(g, "some-other-platform") {
		t.Fatal("CachedPositive leaked across platforms")
	}

	// A cache hit leaves the log untouched.
	if _, err := s.Query(context.Background(), g, hwsim.DatasetPlatform); err != nil {
		t.Fatal(err)
	}
	if obs := s.Observations(0); len(obs) != 1 || obs[0].Seen != 1 {
		t.Fatalf("cache hit re-recorded: %+v", obs)
	}
}
