package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"
	"time"

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
// endpoints, a short body whose length prefixes promise gigabytes is a 400
// answered at once, and a real ~10 KB body is still a 200.
func TestRequestBodyBounds(t *testing.T) {
	c, _ := startServer(t, nil)

	over := append([]byte(`{"platform":"p","model":"`), bytes.Repeat([]byte("A"), maxBodyBytes)...)
	over = append(over, `"}`...)
	for _, path := range []string{"/query", "/predict"} {
		if got := postRaw(t, c, path, over); got != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with %d bytes: status %d, want 413", path, len(over), got)
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

	g, err := models.Variant(models.FamilyResNet, rand.New(rand.NewSource(1)), 1)
	if err != nil {
		t.Fatal(err)
	}
	req, err := encodeRequest(g, hwsim.DatasetPlatform, 0)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = json.Marshal(req)
	if len(body) < 5_000 {
		t.Fatalf("the real body is only %d bytes", len(body))
	}
	if got := postRaw(t, c, "/query", body); got != http.StatusOK {
		t.Errorf("/query with a real %d-byte body: status %d, want 200", len(body), got)
	}
}
