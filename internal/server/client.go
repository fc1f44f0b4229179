package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"nnlqp/internal/onnx"
	"nnlqp/internal/slo"
)

// Client is the Go wire client for the HTTP API that the test suites of this
// package and of internal/chaos drive servers and routers with. The calls
// only this package's tests make live in client_test.go.
type Client struct {
	BaseURL string
	HTTP    *http.Client
	// Class optionally tags every request with an SLO class (slo.Header);
	// empty sends no header and the server treats requests as best-effort.
	Class slo.Class
}

// NewClientTimeout creates a client with an explicit request timeout
// (0 disables the timeout).
func NewClientTimeout(baseURL string, timeout time.Duration) *Client {
	return &Client{BaseURL: baseURL, HTTP: &http.Client{Timeout: timeout}}
}

func (c *Client) post(ctx context.Context, path string, req *Request, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if c.Class != "" {
		hreq.Header.Set(slo.Header, string(c.Class))
	}
	resp, err := c.HTTP.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var er errorResponse
		if json.Unmarshal(data, &er) == nil && er.Error != "" {
			return fmt.Errorf("server: status %d: %s", resp.StatusCode, er.Error)
		}
		// Non-JSON error body (proxy page, truncated response, panic text):
		// surface it intact rather than swallowing it.
		if msg := strings.TrimSpace(string(data)); msg != "" {
			const maxErrBody = 512
			if len(msg) > maxErrBody {
				msg = msg[:maxErrBody] + "..."
			}
			return fmt.Errorf("server: status %d: %s", resp.StatusCode, msg)
		}
		return fmt.Errorf("server: status %d", resp.StatusCode)
	}
	return json.Unmarshal(data, out)
}

func encodeRequest(g *onnx.Graph, platform string, batch int) (*Request, error) {
	raw, err := g.EncodeBinary()
	if err != nil {
		return nil, err
	}
	return &Request{
		Model:     base64.StdEncoding.EncodeToString(raw),
		Platform:  platform,
		BatchSize: batch,
	}, nil
}

// QueryContext requests a true latency measurement (or cache hit), bounded by
// ctx; cancelling it abandons the request (and, server side, releases any
// pending device wait).
func (c *Client) QueryContext(ctx context.Context, g *onnx.Graph, platform string, batch int) (*QueryResponse, error) {
	req, err := encodeRequest(g, platform, batch)
	if err != nil {
		return nil, err
	}
	var out QueryResponse
	if err := c.post(ctx, "/query", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// PredictDetailed requests an NNLP latency prediction, bounded by ctx, and
// returns the full response — including the predictor generation the answer
// was computed under, which a caller tracking hot-swaps needs.
func (c *Client) PredictDetailed(ctx context.Context, g *onnx.Graph, platform string, batch int) (*PredictResponse, error) {
	req, err := encodeRequest(g, platform, batch)
	if err != nil {
		return nil, err
	}
	var out PredictResponse
	if err := c.post(ctx, "/predict", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Engine fetches the predictor-engine status: generation, swap history,
// and (when the online loops run) retrain and active-measurement progress.
func (c *Client) Engine() (*EngineResponse, error) {
	resp, err := c.HTTP.Get(c.BaseURL + "/engine")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out EngineResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats fetches server statistics.
func (c *Client) Stats() (*StatsResponse, error) {
	resp, err := c.HTTP.Get(c.BaseURL + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}
