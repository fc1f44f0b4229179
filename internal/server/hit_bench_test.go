package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"

	"nnlqp/internal/db"
	"nnlqp/internal/hwsim"
	"nnlqp/internal/models"
)

// nullWriter is the cheapest http.ResponseWriter: it keeps the status and
// drops the body, so the benchmark below counts the handler, not a recorder.
type nullWriter struct {
	header http.Header
	status int
}

func (w *nullWriter) Header() http.Header         { return w.header }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullWriter) WriteHeader(status int)      { w.status = status }

// BenchmarkServeQueryHit is the database-hit path of the paper (Table 2) as
// the daemon runs it, minus the socket: the real Handler(), 256 pre-encoded
// zoo bodies cycling (the hit_replay working set), every answer from L1. What
// is left is JSON + base64 + onnx decode + index + graph hash + the L1 probe
// + the response encode; `make profile` captures where it goes.
func BenchmarkServeQueryHit(b *testing.B) {
	store, err := db.OpenStore("")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { store.Close() })
	h := NewCore(NewStorageRole(store, 0, 0), NewLocalMeasurementRole(2), nil).Handler()

	rng := rand.New(rand.NewSource(1))
	bodies := make([][]byte, 256)
	for i := range bodies {
		g, err := models.Variant(models.Families[i%len(models.Families)], rng, 1)
		if err != nil {
			b.Fatal(err)
		}
		req, err := encodeRequest(g, hwsim.DatasetPlatform, 0)
		if err != nil {
			b.Fatal(err)
		}
		if bodies[i], err = json.Marshal(req); err != nil {
			b.Fatal(err)
		}
	}
	w := &nullWriter{header: make(http.Header)}
	serve := func(body []byte) {
		req, err := http.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		w.status = http.StatusOK
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
	for _, body := range bodies { // ingest: every timed request is then a hit
		serve(body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(bodies[i%len(bodies)])
	}
}
