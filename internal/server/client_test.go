package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"nnlqp/internal/cluster"
	"nnlqp/internal/onnx"
)

// The Client calls that only this package's tests make.

// DefaultClientTimeout bounds every client request unless overridden via
// NewClientTimeout or by replacing Client.HTTP.
const DefaultClientTimeout = 30 * time.Second

// NewClient creates a client for a server at baseURL (e.g.
// "http://127.0.0.1:8080") with the default request timeout.
func NewClient(baseURL string) *Client {
	return NewClientTimeout(baseURL, DefaultClientTimeout)
}

// Query requests a true latency measurement (or cache hit).
func (c *Client) Query(g *onnx.Graph, platform string, batch int) (*QueryResponse, error) {
	return c.QueryContext(context.Background(), g, platform, batch)
}

// Predict requests an NNLP latency prediction.
func (c *Client) Predict(g *onnx.Graph, platform string, batch int) (float64, error) {
	return c.PredictContext(context.Background(), g, platform, batch)
}

// PredictContext is Predict bounded by ctx.
func (c *Client) PredictContext(ctx context.Context, g *onnx.Graph, platform string, batch int) (float64, error) {
	out, err := c.PredictDetailed(ctx, g, platform, batch)
	if err != nil {
		return 0, err
	}
	return out.LatencyMS, nil
}

// Platforms lists the server's platforms.
func (c *Client) Platforms() ([]string, error) {
	resp, err := c.HTTP.Get(c.BaseURL + "/platforms")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out map[string][]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out["platforms"], nil
}

// Cluster fetches the router's cluster status: routing policy, retry
// counters and the per-member health view. Only routers serve /cluster; a
// plain server answers 404.
func (c *Client) Cluster() (*cluster.StatusResponse, error) {
	resp, err := c.HTTP.Get(c.BaseURL + "/cluster")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("server: status %d (is this a router?)", resp.StatusCode)
	}
	var out cluster.StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}
