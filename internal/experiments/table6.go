package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"nnlqp/internal/core"
	"nnlqp/internal/feats"
	"nnlqp/internal/hwsim"
	"nnlqp/internal/models"
)

// Table6Result compares multi-model and single-model multi-head prediction.
type Table6Result struct {
	// Acc10 per platform for the two regimes.
	MultiModels map[string]float64
	SingleModel map[string]float64
	AvgMulti    float64
	AvgSingle   float64
	// Wall-clock cost of predicting the test models on all platforms.
	MultiCostSec  float64
	SingleCostSec float64
	Table         *Table
}

// supportedFamilies returns the model families whose base models run on
// the platform (e.g. MobileNetV3's hard-sigmoid is unsupported on
// cpu-openppl, as §9 notes).
func supportedFamilies(p *hwsim.Platform) []string {
	var out []string
	probe := rand.New(rand.NewSource(7))
	for _, fam := range models.Families {
		g, err := models.Variant(fam, probe, 1)
		if err != nil {
			continue
		}
		ok := true
		for _, n := range g.Nodes {
			if !p.SupportsOp(string(n.Op)) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, fam)
		}
	}
	return out
}

// RunTable6 reproduces Table 6 (§8.5): per-platform Acc(10%) of nine
// independent predictors versus one shared-backbone multi-head predictor,
// plus the inference-cost comparison (the paper: 93.41s vs 10.59s, ~9×).
func RunTable6(o Options) (*Table6Result, error) {
	perPlat := o.TrainPerFamily + o.TestPerFamily // models per platform
	res := &Table6Result{
		MultiModels: map[string]float64{},
		SingleModel: map[string]float64{},
	}

	type platData struct {
		train, test []core.Sample
	}
	data := map[string]*platData{}
	var allTrain []core.Sample
	for pi, plat := range hwsim.EvalPlatforms {
		p, err := hwsim.PlatformByName(plat)
		if err != nil {
			return nil, err
		}
		fams := supportedFamilies(p)
		per := perPlat / len(fams)
		if per < 2 {
			per = 2
		}
		ds, err := buildLatencyDataset(fams, per, plat, o.Seed+int64(pi))
		if err != nil {
			return nil, err
		}
		cs, err := coreSamples(ds, plat)
		if err != nil {
			return nil, err
		}
		// Random 7:3 split (§8.5): shuffle so train and test mix families.
		shuffleRng := rand.New(rand.NewSource(o.Seed + 500 + int64(pi)))
		shuffleRng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
		cut := len(cs) * 7 / 10
		pd := &platData{train: cs[:cut], test: cs[cut:]}
		data[plat] = pd
		allTrain = append(allTrain, pd.train...)
	}

	// Multi-models: one predictor per platform.
	multis := map[string]*core.Predictor{}
	for _, plat := range hwsim.EvalPlatforms {
		p := core.New(o.predictorConfig())
		if err := p.Fit(data[plat].train); err != nil {
			return nil, err
		}
		m, err := p.Evaluate(data[plat].test)
		if err != nil {
			return nil, err
		}
		res.MultiModels[plat] = m.Acc10
		multis[plat] = p
	}

	// Single model with multi-heads over the union.
	single := core.New(o.predictorConfig())
	if err := single.Fit(allTrain); err != nil {
		return nil, err
	}
	for _, plat := range hwsim.EvalPlatforms {
		m, err := single.Evaluate(data[plat].test)
		if err != nil {
			return nil, err
		}
		res.SingleModel[plat] = m.Acc10
	}

	var sm, ss float64
	for _, plat := range hwsim.EvalPlatforms {
		sm += res.MultiModels[plat]
		ss += res.SingleModel[plat]
	}
	res.AvgMulti = sm / float64(len(hwsim.EvalPlatforms))
	res.AvgSingle = ss / float64(len(hwsim.EvalPlatforms))

	// Cost comparison: predict the first platform's test models on all 9
	// platforms. Multi-models run a full forward per (model, platform);
	// the single model embeds once and runs all heads.
	costModels := data[hwsim.EvalPlatforms[0]].test
	one := make([]float64, 0, 1)
	start := time.Now()
	for _, s := range costModels {
		for _, plat := range hwsim.EvalPlatforms {
			// Each per-platform predictor only has its own head; route to it.
			if _, err := multis[plat].PredictSamplesInto(one, []*feats.GraphFeatures{s.GF}, plat); err != nil {
				return nil, err
			}
		}
	}
	res.MultiCostSec = time.Since(start).Seconds()
	start = time.Now()
	for _, s := range costModels {
		if _, err := single.PredictAll(s.GF); err != nil {
			return nil, err
		}
	}
	res.SingleCostSec = time.Since(start).Seconds()

	tab := &Table{
		Title:  "Table 6: multi-platform prediction, multi-models vs single multi-head (Acc(10%))",
		Header: []string{"platform", "Multi-models", "Single-model"},
	}
	for _, plat := range hwsim.EvalPlatforms {
		tab.Rows = append(tab.Rows, []string{plat, fmtPct(res.MultiModels[plat]), fmtPct(res.SingleModel[plat])})
	}
	tab.Rows = append(tab.Rows, []string{"Average", fmtPct(res.AvgMulti), fmtPct(res.AvgSingle)})
	tab.Notes = append(tab.Notes, fmt.Sprintf(
		"inference cost over %d models x 9 platforms: multi-models %.3fs vs single-model %.3fs (%.1fx saving; paper: ~9x)",
		len(costModels), res.MultiCostSec, res.SingleCostSec, res.MultiCostSec/res.SingleCostSec))
	res.Table = tab
	tab.Render(o.out())
	return res, nil
}
