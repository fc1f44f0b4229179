package slo

import (
	"context"
	"net/http"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	for _, c := range Classes {
		got, err := Parse(string(c))
		if err != nil || got != c {
			t.Fatalf("Parse(%q) = %v, %v", c, got, err)
		}
		if !c.Valid() {
			t.Fatalf("%q not Valid", c)
		}
	}
	if _, err := Parse("gold"); err == nil {
		t.Fatal("Parse accepted unknown class")
	}
	if Class("gold").Valid() {
		t.Fatal("unknown class Valid")
	}
}

func TestUrgencyOrdering(t *testing.T) {
	if !(Interactive.Urgency() < Batch.Urgency() && Batch.Urgency() < BestEffort.Urgency()) {
		t.Fatalf("urgency ordering broken: %d %d %d",
			Interactive.Urgency(), Batch.Urgency(), BestEffort.Urgency())
	}
	for _, c := range Classes {
		if u := c.Urgency(); u < 0 || u >= NumUrgencies {
			t.Fatalf("%s urgency %d outside [0,%d)", c, u, NumUrgencies)
		}
	}
	if Class("junk").Urgency() != BestEffort.Urgency() {
		t.Fatal("unknown class should rank with best-effort")
	}
}

func TestHeaderDefaultsToBestEffort(t *testing.T) {
	h := http.Header{}
	if c := FromHeader(h); c != BestEffort {
		t.Fatalf("absent header -> %s, want best-effort", c)
	}
	h.Set(Header, "interactive")
	if c := FromHeader(h); c != Interactive {
		t.Fatalf("header interactive -> %s", c)
	}
	h.Set(Header, "platinum")
	if c := FromHeader(h); c != BestEffort {
		t.Fatalf("unknown header value -> %s, want best-effort", c)
	}
}

func TestContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if c := FromContext(ctx); c != BestEffort {
		t.Fatalf("untagged ctx -> %s", c)
	}
	ctx = WithContext(ctx, Interactive)
	if c := FromContext(ctx); c != Interactive {
		t.Fatalf("tagged ctx -> %s", c)
	}
}
