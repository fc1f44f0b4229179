package nnlqp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"nnlqp/internal/core"
	"nnlqp/internal/hwsim"
	"nnlqp/internal/models"
	"nnlqp/internal/serve"
	"nnlqp/internal/train"
)

// EpochProgress reports one finished training epoch to a TrainOptions
// Progress callback.
type EpochProgress struct {
	Epoch     int     // 0-based epoch just finished
	Epochs    int     // total epochs of this run
	TrainLoss float64 // mean per-sample training loss (normalized target space)
	ValLoss   float64 // validation loss; NaN when early stopping is off
	Best      bool    // this epoch improved the best validation loss
	LR        float64 // learning rate used this epoch
	Took      time.Duration
}

// TrainOptions controls predictor training.
type TrainOptions struct {
	// Platforms to train heads for (default: the paper's nine evaluation
	// platforms).
	Platforms []string
	// PerPlatform is the number of models measured per platform
	// (default 200).
	PerPlatform int
	// Families restricts the model zoo used to build the training set
	// (default: all ten families; models a platform cannot run are
	// skipped, as on real hardware).
	Families []string
	// Epochs / Hidden / Depth size the GNN (defaults 30 / 48 / 3).
	Epochs int
	Hidden int
	Depth  int
	// Seed drives model generation and training determinism.
	Seed int64
	// Workers caps the goroutines computing per-sample gradients within a
	// batch (<=0 → GOMAXPROCS). Trained weights are bit-identical for any
	// value.
	Workers int
	// Progress, when set, observes every finished training epoch.
	Progress func(EpochProgress)
}

func (o TrainOptions) withDefaults() TrainOptions {
	if len(o.Platforms) == 0 {
		o.Platforms = append([]string(nil), hwsim.EvalPlatforms...)
	}
	if o.PerPlatform <= 0 {
		o.PerPlatform = 200
	}
	if len(o.Families) == 0 {
		o.Families = append([]string(nil), models.Families...)
	}
	if o.Epochs <= 0 {
		o.Epochs = 30
	}
	if o.Hidden <= 0 {
		o.Hidden = 48
	}
	if o.Depth <= 0 {
		o.Depth = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o TrainOptions) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Epochs = o.Epochs
	cfg.Hidden = o.Hidden
	cfg.HeadHidden = o.Hidden
	cfg.Depth = o.Depth
	cfg.Seed = o.Seed
	cfg.Workers = o.Workers
	cfg.LR = 2e-3
	return cfg
}

// collectSamples measures opts.PerPlatform models per platform through the
// query system, so every measurement also lands in the evolving database.
// Models whose operators a platform cannot run are skipped.
func (c *Client) collectSamples(opts TrainOptions) ([]core.Sample, error) {
	var out []core.Sample
	for pi, plat := range opts.Platforms {
		rng := rand.New(rand.NewSource(opts.Seed + int64(pi)*1000))
		collected := 0
		attempts := 0
		for collected < opts.PerPlatform && attempts < opts.PerPlatform*3 {
			attempts++
			fam := opts.Families[attempts%len(opts.Families)]
			g, err := models.Variant(fam, rng, 1)
			if err != nil {
				return nil, err
			}
			g.Name = fmt.Sprintf("train-%s-%s-%04d", plat, fam, attempts)
			res, err := c.sys.Query(context.Background(), g, plat)
			if err != nil {
				var unsupported *hwsim.UnsupportedOpError
				if errors.As(err, &unsupported) {
					continue // platform cannot run this family
				}
				return nil, err
			}
			s, err := core.NewSample(g, res.LatencyMS, plat)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
			collected++
		}
		if collected == 0 {
			return nil, fmt.Errorf("nnlqp: no runnable models for platform %s", plat)
		}
	}
	return out, nil
}

// TrainPredictor measures a training corpus through the query system
// (populating the evolving database as a side effect) and trains the
// multi-platform NNLP predictor on it.
func (c *Client) TrainPredictor(opts TrainOptions) error {
	opts = opts.withDefaults()
	samples, err := c.collectSamples(opts)
	if err != nil {
		return err
	}
	return c.fitPredictor(opts, samples)
}

// TrainReport summarizes a from-database training run: corpus and holdout
// sizes plus the trained predictor's accuracy on the held-out split.
type TrainReport struct {
	Samples      int
	Holdout      int
	HoldoutMAPE  float64
	HoldoutAcc10 float64
	Took         time.Duration
}

// TrainPredictorFromDBReport trains the predictor from the latency knowledge
// the evolving database has already accumulated — the paper's retraining
// loop — instead of measuring a fresh corpus. The platforms' records are read
// through one Store.TrainingSnapshot, a frozen consistent view, so retraining
// can run while the serving path keeps inserting measurements; platforms
// with no accumulated records are an error. The corpus is split by the same
// deterministic holdout rule the server's online retrainer uses
// (core.SplitHoldout at the retrainer's default fraction), the predictor is
// fitted on the training split only, and the report carries its MAPE /
// Acc(10%) on the unseen holdout — so an offline `nnlqp-train -from-db` run
// and an online retrain of the same snapshot validate against the same
// records.
func (c *Client) TrainPredictorFromDBReport(opts TrainOptions) (*TrainReport, error) {
	opts = opts.withDefaults()
	samples, err := serve.TrainingSamples(c.store, opts.Platforms)
	if err != nil {
		return nil, err
	}
	trainSet, holdout := core.SplitHoldout(samples, serve.DefaultRetrainConfig().HoldoutFrac)
	start := time.Now()
	if err := c.fitPredictor(opts, trainSet); err != nil {
		return nil, err
	}
	rep := &TrainReport{Samples: len(samples), Holdout: len(holdout), Took: time.Since(start)}
	if len(holdout) > 0 {
		c.mu.RLock()
		pred := c.pred
		c.mu.RUnlock()
		m, err := pred.Evaluate(holdout)
		if err != nil {
			return nil, err
		}
		rep.HoldoutMAPE, rep.HoldoutAcc10 = m.MAPE, m.Acc10
	}
	return rep, nil
}

// fitPredictor trains a fresh predictor on samples and installs it.
func (c *Client) fitPredictor(opts TrainOptions, samples []core.Sample) error {
	pred := core.New(opts.config())
	if opts.Progress != nil {
		progress := opts.Progress
		pred.SetEpochHook(func(m train.EpochMetrics) {
			progress(EpochProgress{
				Epoch: m.Epoch, Epochs: m.Epochs,
				TrainLoss: m.TrainLoss, ValLoss: m.ValLoss,
				Best: m.Best, LR: m.LR, Took: m.Took,
			})
		})
	}
	if err := pred.Fit(samples); err != nil {
		return err
	}
	c.mu.Lock()
	c.pred = pred
	c.mu.Unlock()
	return nil
}

// FineTuneOnPlatform extends a trained predictor to a new platform using
// few measured samples (the paper's unseen-platform transfer learning,
// §8.6): the shared backbone transfers, only a new head plus light
// fine-tuning are needed.
func (c *Client) FineTuneOnPlatform(platform string, numSamples int, epochs int, seed int64) error {
	c.mu.Lock()
	pred := c.pred
	c.mu.Unlock()
	if pred == nil {
		return fmt.Errorf("nnlqp: no trained predictor; call TrainPredictor first")
	}
	opts := TrainOptions{
		Platforms: []string{platform}, PerPlatform: numSamples, Seed: seed,
	}.withDefaults()
	samples, err := c.collectSamples(opts)
	if err != nil {
		return err
	}
	if epochs <= 0 {
		epochs = 30
	}
	return pred.FineTune(samples, epochs)
}

// EvaluatePredictor measures fresh models on a platform and reports the
// predictor's MAPE and Acc(10%) against them. When families are given, the
// evaluation models are drawn from those families only (otherwise the full
// zoo, which probes unseen-structure generalization for narrowly-trained
// predictors).
func (c *Client) EvaluatePredictor(platform string, numSamples int, seed int64, families ...string) (mape, acc10 float64, err error) {
	c.mu.RLock()
	pred := c.pred
	c.mu.RUnlock()
	if pred == nil {
		return 0, 0, fmt.Errorf("nnlqp: no trained predictor")
	}
	opts := TrainOptions{Platforms: []string{platform}, PerPlatform: numSamples, Seed: seed, Families: families}.withDefaults()
	samples, err := c.collectSamples(opts)
	if err != nil {
		return 0, 0, err
	}
	m, err := pred.Evaluate(samples)
	if err != nil {
		return 0, 0, err
	}
	return m.MAPE, m.Acc10, nil
}
