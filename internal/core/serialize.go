package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"

	"nnlqp/internal/feats"
	"nnlqp/internal/gnn"
	"nnlqp/internal/tensor"
)

// snapshot is the gob wire form of a trained predictor: everything needed
// to reload it for inference or further fine-tuning (the paper's
// "pre-trained model" artifacts). Per-platform state is stored in slices
// aligned with HeadOrder (sorted platform names), so one predictor always
// encodes to the same bytes; gob writes maps in random order. Targets and
// Heads are that state as maps, only read from files written before the
// slices existed.
type snapshot struct {
	Cfg         Config
	Norm        *feats.Normalizer
	Targets     map[string]targetStats
	Encoder     [][]matrixSnap // per layer: [W1, W2]
	Heads       map[string][]matrixSnap
	HeadOrder   []string
	TargetStats []targetStats
	HeadParams  [][]matrixSnap
}

type matrixSnap struct {
	Rows, Cols int
	Data       []float64
}

func snapMatrix(m *tensor.Matrix) matrixSnap {
	return matrixSnap{Rows: m.Rows, Cols: m.Cols, Data: append([]float64(nil), m.Data...)}
}

func (s matrixSnap) restore(into *tensor.Matrix) error {
	if into.Rows != s.Rows || into.Cols != s.Cols {
		return fmt.Errorf("core: snapshot matrix %dx%d does not fit %dx%d", s.Rows, s.Cols, into.Rows, into.Cols)
	}
	copy(into.Data, s.Data)
	return nil
}

// headParamsSnap captures a head's six parameter matrices in order.
func headParamsSnap(h *gnn.Head) []matrixSnap {
	var out []matrixSnap
	for _, p := range h.Params() {
		out = append(out, snapMatrix(p.Value))
	}
	return out
}

// Save writes the trained predictor to w.
func (p *Predictor) Save(w io.Writer) error {
	if p.norm == nil {
		return fmt.Errorf("core: cannot save an unfitted predictor")
	}
	s := snapshot{Cfg: p.cfg, Norm: p.norm}
	if p.enc != nil {
		for _, l := range p.enc.Layers {
			s.Encoder = append(s.Encoder, []matrixSnap{snapMatrix(l.W1.Value), snapMatrix(l.W2.Value)})
		}
	}
	for _, name := range p.Platforms() {
		s.HeadOrder = append(s.HeadOrder, name)
		s.TargetStats = append(s.TargetStats, p.tgt[name])
		s.HeadParams = append(s.HeadParams, headParamsSnap(p.heads[name]))
	}
	return gob.NewEncoder(w).Encode(&s)
}

// Load reconstructs a predictor from a Save stream.
func Load(r io.Reader) (*Predictor, error) {
	var s snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, err
	}
	if s.HeadParams == nil {
		// Written before the ordered slices: read the maps.
		for _, name := range s.HeadOrder {
			s.TargetStats = append(s.TargetStats, s.Targets[name])
			s.HeadParams = append(s.HeadParams, s.Heads[name])
		}
	}
	if len(s.TargetStats) != len(s.HeadOrder) || len(s.HeadParams) != len(s.HeadOrder) {
		return nil, fmt.Errorf("core: snapshot has %d heads, %d target stats and %d head tensor sets", len(s.HeadOrder), len(s.TargetStats), len(s.HeadParams))
	}
	p := New(s.Cfg)
	p.norm = s.Norm
	if p.enc != nil {
		if len(s.Encoder) != len(p.enc.Layers) {
			return nil, fmt.Errorf("core: snapshot has %d encoder layers, config wants %d", len(s.Encoder), len(p.enc.Layers))
		}
		for i, l := range p.enc.Layers {
			if err := s.Encoder[i][0].restore(l.W1.Value); err != nil {
				return nil, err
			}
			if err := s.Encoder[i][1].restore(l.W2.Value); err != nil {
				return nil, err
			}
		}
	}
	for i, name := range s.HeadOrder {
		p.tgt[name] = s.TargetStats[i]
		params := p.head(name).Params()
		snaps := s.HeadParams[i]
		if len(snaps) != len(params) {
			return nil, fmt.Errorf("core: head %q snapshot has %d tensors, want %d", name, len(snaps), len(params))
		}
		for i, ps := range snaps {
			if err := ps.restore(params[i].Value); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// Clone deep-copies the predictor (weights, normalizer, target stats) with
// a fresh optimizer — the starting point of every transfer-learning run.
func (p *Predictor) Clone() (*Predictor, error) {
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		return nil, err
	}
	c, err := Load(&buf)
	if err != nil {
		return nil, err
	}
	// Decorrelate any future stochastic choices (dropout, shuffles) while
	// keeping determinism under the original seed.
	c.rng = rand.New(rand.NewSource(p.cfg.Seed + 1))
	return c, nil
}
