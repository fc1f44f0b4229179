// Package serve owns the live predictor on the serving path. Before this
// package existed, predictor ownership was smeared across layers — the HTTP
// server held it under an RWMutex, the query system held a separate fallback
// reference, the memo keyed entries by generation, and the /predict batcher
// captured a generation per window — so a live swap had four half-coordinated
// touch points and a window in which /query degradation could pair the old
// weights with the new generation.
//
// Engine collapses all of that into one atomically swappable handle: a single
// pointer load observes the predictor, its generation, and the holdout
// metrics it shipped with, so every consumer (the /predict handler, the
// query-path degradation fallback, the batcher, the stats endpoint) sees one
// consistent predictor state or the other — never a mix.
//
// On top of the handle this package closes the paper's evolving-database
// loop: Retrainer (retrainer.go) watches drift triggers and hot-swaps
// improved predictors trained off the hot path, and Scheduler (scheduler.go)
// spends idle farm capacity measuring the graphs the predictor is most
// uncertain about.
package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nnlqp/internal/core"
	"nnlqp/internal/onnx"
)

// engineState is the immutable unit an Engine publishes: a predictor plus
// the metadata it was installed with. Consumers load the pointer once and
// read freely; swaps publish a fresh state rather than mutating this one.
type engineState struct {
	pred    *core.Predictor // nil until the first trained predictor arrives
	seq     int64           // swap sequence number (0 = initial state)
	holdout core.Metrics    // holdout metrics at swap time (zero if unknown)
	reason  string
	at      time.Time
}

// SwapRecord is one entry of the Engine's swap history.
type SwapRecord struct {
	Seq          int64     `json:"seq"`
	Generation   uint64    `json:"generation"`
	Reason       string    `json:"reason"`
	HoldoutMAPE  float64   `json:"holdout_mape,omitempty"`
	HoldoutAcc10 float64   `json:"holdout_acc10,omitempty"`
	HoldoutN     int       `json:"holdout_n,omitempty"`
	At           time.Time `json:"at"`
}

// historyCap bounds the swap history kept in memory.
const historyCap = 64

// Engine is the single owner of the serving predictor. Reads (Snapshot,
// Predict, Generation) are one atomic pointer load; Swap publishes a new
// predictor for every consumer at once. It satisfies query.Fallback, so the
// degradation path and the /predict path can never disagree about which
// predictor is live.
type Engine struct {
	cur atomic.Pointer[engineState]

	mu      sync.Mutex // serializes swaps and guards history
	history []SwapRecord

	swaps   atomic.Int64
	rejects atomic.Int64
}

// NewEngine builds an engine, optionally pre-loaded with a predictor (nil is
// fine: the engine reports not Ready until the first Swap).
func NewEngine(pred *core.Predictor) *Engine {
	e := &Engine{}
	st := &engineState{pred: pred, at: time.Now()}
	if pred != nil {
		st.reason = "initial"
	}
	e.cur.Store(st)
	return e
}

// Current returns the live predictor (nil when none is installed).
func (e *Engine) Current() *core.Predictor { return e.cur.Load().pred }

// Ready reports whether a predictor is installed.
func (e *Engine) Ready() bool { return e.cur.Load().pred != nil }

// Snapshot returns the live predictor together with its generation, read
// from a single state load so the pair is always consistent across a
// concurrent Swap. The predictor is nil (and the generation 0) when none is
// installed.
func (e *Engine) Snapshot() (*core.Predictor, uint64) {
	st := e.cur.Load()
	if st.pred == nil {
		return nil, 0
	}
	return st.pred, st.pred.Generation()
}

// Predict satisfies query.Fallback: a degraded /query answers from the same
// predictor state /predict serves.
func (e *Engine) Predict(g *onnx.Graph, platform string) (float64, error) {
	v, _, err := e.PredictWithGeneration(g, platform)
	return v, err
}

// PredictWithGeneration predicts and reports the generation the prediction
// was computed under. Predictor and generation come from one state load, so
// a concurrent Swap can never pair one predictor's value with the other's
// generation — the gap the old Server.SetPredictor/System.SetFallback pair
// had.
func (e *Engine) PredictWithGeneration(g *onnx.Graph, platform string) (float64, uint64, error) {
	st := e.cur.Load()
	if st.pred == nil {
		return 0, 0, fmt.Errorf("serve: no trained predictor loaded")
	}
	gen := st.pred.Generation()
	v, err := st.pred.Predict(g, platform)
	if err != nil {
		return 0, 0, err
	}
	return v, gen, nil
}

// Swap atomically installs pred (nil uninstalls) for every consumer at once
// and records the swap in the history. holdout carries the validation
// metrics the predictor shipped with (zero Metrics when unknown, e.g. a
// manually loaded file); reason labels the swap for the history and /stats.
// Old memo entries are orphaned by the generation change, not flushed.
func (e *Engine) Swap(pred *core.Predictor, holdout core.Metrics, reason string) SwapRecord {
	e.mu.Lock()
	defer e.mu.Unlock()
	prev := e.cur.Load()
	st := &engineState{pred: pred, seq: prev.seq + 1, holdout: holdout, reason: reason, at: time.Now()}
	rec := SwapRecord{
		Seq: st.seq, Reason: reason,
		HoldoutMAPE: holdout.MAPE, HoldoutAcc10: holdout.Acc10, HoldoutN: holdout.Count,
		At: st.at,
	}
	if pred != nil {
		rec.Generation = pred.Generation()
	}
	e.cur.Store(st)
	e.swaps.Add(1)
	e.history = append(e.history, rec)
	if len(e.history) > historyCap {
		e.history = e.history[len(e.history)-historyCap:]
	}
	return rec
}

// Reject records a candidate predictor that failed validation and was not
// installed (the retrainer calls it; /stats surfaces the count).
func (e *Engine) Reject() { e.rejects.Add(1) }

// History returns a copy of the swap history, oldest first.
func (e *Engine) History() []SwapRecord {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]SwapRecord(nil), e.history...)
}

// EngineStats is a point-in-time snapshot of the engine counters.
type EngineStats struct {
	Ready        bool    `json:"ready"`
	Generation   uint64  `json:"generation"`
	Swaps        int64   `json:"swaps"`
	Rejects      int64   `json:"swap_rejects"`
	LastReason   string  `json:"last_swap_reason,omitempty"`
	HoldoutMAPE  float64 `json:"holdout_mape,omitempty"`
	HoldoutAcc10 float64 `json:"holdout_acc10,omitempty"`
}

// Stats snapshots the engine counters and the live state's metadata.
func (e *Engine) Stats() EngineStats {
	st := e.cur.Load()
	out := EngineStats{
		Ready:        st.pred != nil,
		Swaps:        e.swaps.Load(),
		Rejects:      e.rejects.Load(),
		LastReason:   st.reason,
		HoldoutMAPE:  st.holdout.MAPE,
		HoldoutAcc10: st.holdout.Acc10,
	}
	if st.pred != nil {
		out.Generation = st.pred.Generation()
	}
	return out
}
