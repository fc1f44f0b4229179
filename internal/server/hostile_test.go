package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"nnlqp/internal/cluster"
	"nnlqp/internal/graphhash"
	"nnlqp/internal/hwsim"
	"nnlqp/internal/models"
)

func postRaw(t *testing.T, c *Client, path string, body []byte) int {
	t.Helper()
	resp, err := c.HTTP.Post(c.BaseURL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestRequestBodyBounds: a body over the cap is a 413 on both model
// endpoints, at a replica and through a router, even when its first bytes are
// a complete valid request (the whole body is read before it is parsed); a
// short body whose length prefixes promise gigabytes is a 400 answered at
// once; and a real ~10 KB body is still a 200, with or without bytes after
// its closing brace.
func TestRequestBodyBounds(t *testing.T) {
	c, _ := startServer(t, nil)
	routed, _ := startCluster(t, 1, cluster.CacheAffinity{})

	g, err := models.Variant(models.FamilyResNet, rand.New(rand.NewSource(1)), 1)
	if err != nil {
		t.Fatal(err)
	}
	req, err := encodeRequest(g, hwsim.DatasetPlatform, 0)
	if err != nil {
		t.Fatal(err)
	}
	real, _ := json.Marshal(req)
	if len(real) < 5_000 {
		t.Fatalf("the real body is only %d bytes", len(real))
	}

	over := append([]byte(`{"platform":"p","model":"`), bytes.Repeat([]byte("A"), maxBodyBytes)...)
	over = append(over, `"}`...)
	validThenPadding := append(bytes.Clone(real), bytes.Repeat([]byte(" "), maxBodyBytes-len(real)+16)...)
	for _, path := range []string{"/query", "/predict"} {
		for _, via := range []struct {
			name string
			c    *Client
		}{{"replica", c}, {"router", routed}} {
			if got := postRaw(t, via.c, path, over); got != http.StatusRequestEntityTooLarge {
				t.Errorf("%s %s with %d bytes: status %d, want 413", via.name, path, len(over), got)
			}
			if got := postRaw(t, via.c, path, validThenPadding); got != http.StatusRequestEntityTooLarge {
				t.Errorf("%s %s with a valid request padded to %d bytes: status %d, want 413", via.name, path, len(validThenPadding), got)
			}
		}
	}

	// magic, version, empty name and family, one input "x" of rank 1, then a
	// node count of 2^34-1 with nothing behind it.
	raw := []byte("NLQP\x01\x00\x00\x01\x01x\x01\x01\xff\xff\xff\xff\x3f")
	body, _ := json.Marshal(Request{Model: base64.StdEncoding.EncodeToString(raw), Platform: hwsim.DatasetPlatform})
	start := time.Now()
	for _, path := range []string{"/query", "/predict"} {
		if got := postRaw(t, c, path, body); got != http.StatusBadRequest {
			t.Errorf("%s with a huge node count: status %d, want 400", path, got)
		}
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("refusing a 13-byte model took %v", took)
	}

	if got := postRaw(t, c, "/query", real); got != http.StatusOK {
		t.Errorf("/query with a real %d-byte body: status %d, want 200", len(real), got)
	}
	if got := postRaw(t, c, "/query", append(bytes.Clone(real), " {trailing"...)); got != http.StatusOK {
		t.Errorf("/query with bytes after the request: status %d, want 200", got)
	}
}

// TestDecodedGraphOutlivesPooledBuffers: a graph decoded from the pooled
// body and model buffers keeps its key and node names after both buffers are
// overwritten, as they are when the next request reuses them.
func TestDecodedGraphOutlivesPooledBuffers(t *testing.T) {
	g0, err := models.Variant(models.FamilyResNet, rand.New(rand.NewSource(2)), 1)
	if err != nil {
		t.Fatal(err)
	}
	req, err := encodeRequest(g0, hwsim.DatasetPlatform, 0)
	if err != nil {
		t.Fatal(err)
	}
	model := []byte(req.Model)
	var raw []byte
	g, err := decodeModel(model, 4, &raw)
	if err != nil {
		t.Fatal(err)
	}
	want, err := graphhash.GraphKey(g)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, n := range g.Nodes {
		names = append(names, strings.Clone(n.Name))
	}

	for i := range model {
		model[i] = 'A'
	}
	raw = raw[:cap(raw)]
	for i := range raw {
		raw[i] = 0xAA
	}
	g.InvalidateMemo()
	if got, err := graphhash.GraphKey(g); err != nil || got != want {
		t.Fatalf("key after the buffers were overwritten = %v, %v; want %v", got, err, want)
	}
	for i, n := range g.Nodes {
		if n.Name != names[i] {
			t.Fatalf("node %d is named %q after the buffers were overwritten, was %q", i, n.Name, names[i])
		}
	}
}
