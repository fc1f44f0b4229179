package core

import (
	"fmt"
	"math"
	"sync"

	"nnlqp/internal/feats"
	"nnlqp/internal/train"
)

// MAPE is the mean absolute percentage error (Appendix C, Eq. 6), in
// percent; lower is better.
func MAPE(truth, pred []float64) float64 {
	if len(truth) != len(pred) || len(truth) == 0 {
		return math.NaN()
	}
	var sum float64
	for i := range truth {
		if truth[i] == 0 {
			continue
		}
		sum += math.Abs(truth[i]-pred[i]) / math.Abs(truth[i])
	}
	return sum / float64(len(truth)) * 100
}

// AccDelta is the error-bound accuracy Acc(δ) (Appendix C, Eq. 7): the
// percentage of samples whose relative error is within delta (e.g. 0.10 for
// Acc(10%)); higher is better.
func AccDelta(truth, pred []float64, delta float64) float64 {
	if len(truth) != len(pred) || len(truth) == 0 {
		return math.NaN()
	}
	var hit int
	for i := range truth {
		if truth[i] == 0 {
			continue
		}
		if math.Abs(truth[i]-pred[i])/math.Abs(truth[i]) <= delta {
			hit++
		}
	}
	return float64(hit) / float64(len(truth)) * 100
}

// Pearson is the Pearson correlation coefficient between truth and pred:
// 1.0 means the predictor ranks and scales latencies linearly with reality,
// 0 means no linear relationship. NaN for mismatched/empty inputs or when
// either series is constant (zero variance).
func Pearson(truth, pred []float64) float64 {
	if len(truth) != len(pred) || len(truth) == 0 {
		return math.NaN()
	}
	n := float64(len(truth))
	var mt, mp float64
	for i := range truth {
		mt += truth[i]
		mp += pred[i]
	}
	mt /= n
	mp /= n
	var cov, vt, vp float64
	for i := range truth {
		dt, dp := truth[i]-mt, pred[i]-mp
		cov += dt * dp
		vt += dt * dt
		vp += dp * dp
	}
	if vt == 0 || vp == 0 {
		return math.NaN()
	}
	return cov / math.Sqrt(vt*vp)
}

// Calibration is the mean predicted latency over the mean true latency: 1.0
// is perfectly calibrated in aggregate, above 1 the predictor systematically
// over-estimates, below 1 it under-estimates. Orthogonal to MAPE (a
// predictor can have low MAPE yet a consistent bias) and to Pearson (a
// perfectly correlated predictor can still be scaled wrong). NaN for
// mismatched/empty inputs or a zero truth mean.
func Calibration(truth, pred []float64) float64 {
	if len(truth) != len(pred) || len(truth) == 0 {
		return math.NaN()
	}
	var st, sp float64
	for i := range truth {
		st += truth[i]
		sp += pred[i]
	}
	if st == 0 {
		return math.NaN()
	}
	return sp / st
}

// SplitHoldout deterministically splits samples into a training set and a
// held-out validation set: with frac ≈ 1/k, every k-th sample (by position)
// is held out. The split depends only on sample order — which
// db.Store.TrainingSnapshot fixes to insertion order — so the online
// retrainer and `nnlqp-train -from-db` agree on the same holdout for the
// same snapshot, and repeated splits of an unchanged database are
// identical. Sets too small to validate (fewer than 5 samples, or frac <= 0)
// are returned whole with an empty holdout.
func SplitHoldout(samples []Sample, frac float64) (train, holdout []Sample) {
	if frac <= 0 || len(samples) < 5 {
		return samples, nil
	}
	k := int(math.Round(1 / frac))
	if k < 2 {
		k = 2
	}
	train = make([]Sample, 0, len(samples))
	for i, s := range samples {
		if i%k == k-1 {
			holdout = append(holdout, s)
		} else {
			train = append(train, s)
		}
	}
	if len(train) == 0 {
		return samples, nil
	}
	return train, holdout
}

// Metrics bundles the two evaluation figures the paper reports.
type Metrics struct {
	MAPE   float64
	Acc10  float64
	Count  int
	Truths []float64
	Preds  []float64
}

// String renders a compact summary.
func (m Metrics) String() string {
	return fmt.Sprintf("MAPE %.2f%%  Acc(10%%) %.2f%%  n=%d", m.MAPE, m.Acc10, m.Count)
}

// Evaluate runs the predictor over samples, fanning the independent forward
// passes across Config.Workers goroutines, and computes metrics.
func (p *Predictor) Evaluate(samples []Sample) (Metrics, error) {
	truths := make([]float64, len(samples))
	preds := make([]float64, len(samples))
	var mu sync.Mutex
	var firstErr error
	train.ParallelFor(p.cfg.Workers, len(samples), func(_, i int) {
		// preds[i:i] has room for exactly the one answer appended.
		s := samples[i]
		if _, err := p.PredictSamplesInto(preds[i:i], []*feats.GraphFeatures{s.GF}, s.Platform); err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			return
		}
		truths[i] = s.LatencyMS
	})
	if firstErr != nil {
		return Metrics{}, firstErr
	}
	return Metrics{
		MAPE:   MAPE(truths, preds),
		Acc10:  AccDelta(truths, preds, 0.10),
		Count:  len(samples),
		Truths: truths,
		Preds:  preds,
	}, nil
}
