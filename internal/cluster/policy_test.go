package cluster

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"testing"
)

// Compile-time check: all three routing policies sit behind the one Policy
// interface the router is configured with.
var (
	_ Policy = (*RoundRobin)(nil)
	_ Policy = LeastLoaded{}
	_ Policy = CacheAffinity{}
)

func testMembers(n int) []*Member {
	ms := make([]*Member, n)
	for i := range ms {
		ms[i] = NewMember(fmt.Sprintf("replica-%d", i), fmt.Sprintf("127.0.0.1:%d", 9000+i))
	}
	return ms
}

func TestPolicyByName(t *testing.T) {
	for name, want := range map[string]string{
		"":               "round-robin",
		"rr":             "round-robin",
		"round-robin":    "round-robin",
		"least-loaded":   "least-loaded",
		"ll":             "least-loaded",
		"affinity":       "affinity",
		"cache-affinity": "affinity",
		"hrw":            "affinity",
	} {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatalf("PolicyByName(%q): %v", name, err)
		}
		if p.Name() != want {
			t.Fatalf("PolicyByName(%q).Name() = %q, want %q", name, p.Name(), want)
		}
	}
	if _, err := PolicyByName("random"); err == nil {
		t.Fatal("unknown policy name did not error")
	}
}

// TestRoundRobinRotates: request n starts at member n mod len and the rest of
// the order is the failover ring from there.
func TestRoundRobinRotates(t *testing.T) {
	ms := testMembers(3)
	p := NewRoundRobin()
	for req := 0; req < 7; req++ {
		order := p.Order(42, ms)
		if len(order) != 3 {
			t.Fatalf("order length = %d", len(order))
		}
		for i, m := range order {
			if want := ms[(req+i)%3]; m != want {
				t.Fatalf("request %d position %d = %s, want %s", req, i, m.name, want.name)
			}
		}
	}
}

// TestLeastLoadedPrefersIdleReplica: the member with the fewest outstanding
// requests (local in-flight + probed remote gauge) comes first.
func TestLeastLoadedPrefersIdleReplica(t *testing.T) {
	ms := testMembers(3)
	ms[0].inflight.Store(5)
	ms[1].inflight.Store(1)
	ms[1].remoteInFlight.Store(3)
	ms[2].inflight.Store(2)
	order := LeastLoaded{}.Order(7, ms)
	if order[0] != ms[2] || order[1] != ms[1] || order[2] != ms[0] {
		t.Fatalf("order = %s,%s,%s", order[0].name, order[1].name, order[2].name)
	}
}

// TestLeastLoadedTieBreaksByRendezvous: equal load must not flap between
// members across calls — ties resolve by the key's rendezvous ranking, so a
// repeated key keeps landing on the same (cache-warm) member.
func TestLeastLoadedTieBreaksByRendezvous(t *testing.T) {
	ms := testMembers(4)
	for key := uint64(0); key < 50; key++ {
		want := CacheAffinity{}.Order(key, ms)[0]
		for rep := 0; rep < 3; rep++ {
			got := LeastLoaded{}.Order(key, ms)[0]
			if got != want {
				t.Fatalf("key %d: tie broke to %s, want %s", key, got.name, want.name)
			}
		}
	}
}

// affinityOwner maps every key in [0, nKeys) to its winning member name.
func affinityOwner(ms []*Member, nKeys int) []string {
	out := make([]string, nKeys)
	for k := range out {
		out[k] = CacheAffinity{}.Order(uint64(k), ms)[0].name
	}
	return out
}

// TestCacheAffinityChurnStability is the rendezvous property test: when a
// member leaves, exactly its own keys move (everyone else's assignment is
// untouched); when a member joins, the only keys that move are the ~1/(N+1)
// share it steals. Modular hashing would reshuffle nearly everything on both
// events.
func TestCacheAffinityChurnStability(t *testing.T) {
	const nKeys = 2000
	ms := testMembers(5)
	before := affinityOwner(ms, nKeys)

	// Removal: the victim's keys all move, nobody else's do.
	victim := ms[2].name
	without := append(append([]*Member(nil), ms[:2]...), ms[3:]...)
	after := affinityOwner(without, nKeys)
	moved := 0
	for k := range before {
		switch {
		case before[k] == victim:
			moved++
			if after[k] == victim {
				t.Fatalf("key %d still assigned to removed member", k)
			}
		case after[k] != before[k]:
			t.Fatalf("key %d moved from %s to %s though %s left", k, before[k], after[k], victim)
		}
	}
	if lo, hi := nKeys/10, nKeys/3; moved < lo || moved > hi {
		t.Fatalf("removal moved %d keys, want roughly %d (K/N)", moved, nKeys/5)
	}

	// Join: the only destination for a moved key is the new member.
	joined := append(append([]*Member(nil), ms...), NewMember("replica-new", "127.0.0.1:9100"))
	after = affinityOwner(joined, nKeys)
	moved = 0
	for k := range before {
		if after[k] == before[k] {
			continue
		}
		if after[k] != "replica-new" {
			t.Fatalf("key %d moved from %s to %s, not to the joiner", k, before[k], after[k])
		}
		moved++
	}
	if lo, hi := nKeys/12, nKeys/3; moved < lo || moved > hi {
		t.Fatalf("join moved %d keys, want roughly %d (K/(N+1))", moved, nKeys/6)
	}
}

// TestCacheAffinityBalance: the rendezvous ranking spreads the keyspace
// roughly evenly — no member owns a wildly out-of-proportion share.
func TestCacheAffinityBalance(t *testing.T) {
	const nKeys = 2000
	ms := testMembers(5)
	counts := map[string]int{}
	for _, owner := range affinityOwner(ms, nKeys) {
		counts[owner]++
	}
	for name, n := range counts {
		if n < nKeys/10 || n > nKeys/2 {
			t.Fatalf("member %s owns %d of %d keys", name, n, nKeys)
		}
	}
	if len(counts) != 5 {
		t.Fatalf("only %d members own keys", len(counts))
	}
}

// TestRequestKeyStable: byte-identical requests derive the same routing key,
// and any field change derives a different one.
func TestRequestKeyStable(t *testing.T) {
	base := requestKey("bW9kZWw=", "cpu-openvino-fp32", 1)
	if requestKey("bW9kZWw=", "cpu-openvino-fp32", 1) != base {
		t.Fatal("identical request hashed differently")
	}
	for _, other := range []uint64{
		requestKey("bW9kZWxY", "cpu-openvino-fp32", 1),
		requestKey("bW9kZWw=", "gpu-tensorrt-fp16", 1),
		requestKey("bW9kZWw=", "cpu-openvino-fp32", 4),
	} {
		if other == base {
			t.Fatal("distinct request collided with base key")
		}
	}
}

// fnvRequestKey is requestKey as hash/fnv computes it: a router of either
// form sends a given request to the same replica.
func fnvRequestKey(model, platform string, batch int) uint64 {
	h := fnv.New64a()
	io.WriteString(h, model)
	h.Write([]byte{0})
	io.WriteString(h, platform)
	fmt.Fprintf(h, "\x00%d", batch)
	return h.Sum64()
}

// TestBodyKeyMatchesDecodedFields: the key taken from a scanned body equals
// requestKey of the fields the replica's encoding/json decoder reads from it,
// for canonical bodies and for those that fall back, and both forms equal the
// hash/fnv definition, so affinity does not move.
func TestBodyKeyMatchesDecodedFields(t *testing.T) {
	var bodies [][]byte
	for i, platform := range []string{"cpu-openvino-fp32", "gpu-tensorrt-fp16", "p"} {
		for batch := -1; batch <= 8; batch += 3 {
			model := base64.StdEncoding.EncodeToString([]byte(strings.Repeat("NLQP", 40*i+batch+2)))
			body, err := json.Marshal(proxyRequest{Model: model, Platform: platform, BatchSize: batch})
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, body)
		}
	}
	bodies = append(bodies,
		[]byte(`{"platform": "p", "model": "bW9kZWw=", "batch_size": 4} trailing`),
		[]byte(`{"model":"bW9k\u005aWw=","platform":"p"}`), // escape: falls back
		[]byte(`{"Model":"bW9kZWw=","platform":"p"}`),      // case: falls back
		[]byte(`not json`),
	)
	for _, body := range bodies {
		var req proxyRequest
		_ = json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		want := requestKey(req.Model, req.Platform, req.BatchSize)
		if got := bodyKey(body); got != want {
			t.Errorf("bodyKey(%.60q) = %x, requestKey of the decoded fields = %x", body, got, want)
		}
		if ref := fnvRequestKey(req.Model, req.Platform, req.BatchSize); want != ref {
			t.Errorf("requestKey(%.40q, %q, %d) = %x, hash/fnv gives %x", req.Model, req.Platform, req.BatchSize, want, ref)
		}
		if b := requestKey([]byte(req.Model), req.Platform, req.BatchSize); b != want {
			t.Errorf("requestKey over bytes = %x, over the string = %x", b, want)
		}
	}
}
