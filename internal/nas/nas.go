// Package nas implements the NAS verification machinery of the paper's
// §8.7 / Fig. 9 and Table 7: Kendall rank correlation between latency
// proxies and true latency, Pareto-front extraction over
// (latency, accuracy) candidate sets, and the lookup-table latency
// estimator NAS methods commonly use as a cheap proxy.
package nas

import (
	"fmt"
	"math"
	"sort"

	"nnlqp/internal/onnx"
)

// KendallTau computes the Kendall rank correlation coefficient (tau-a)
// between two equal-length value series.
func KendallTau(a, b []float64) float64 {
	n := len(a)
	if n != len(b) || n < 2 {
		return math.NaN()
	}
	var concordant, discordant int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			da := a[i] - a[j]
			db := b[i] - b[j]
			p := da * db
			switch {
			case p > 0:
				concordant++
			case p < 0:
				discordant++
			}
		}
	}
	pairs := n * (n - 1) / 2
	return float64(concordant-discordant) / float64(pairs)
}

// Candidate is one NAS sample: a model with its accuracy and the latency
// estimates of every proxy under comparison.
type Candidate struct {
	Graph    *onnx.Graph
	Accuracy float64
	// TrueLatMS is the measured latency; proxy estimates may be in
	// arbitrary but monotone-comparable units.
	TrueLatMS float64
	FLOPs     float64
	LookupMS  float64
	PredMS    float64
}

// ParetoFront returns the indices of candidates on the Pareto front under
// (minimize lat(c), maximize accuracy), where lat selects the latency
// metric to optimize against. Indices are sorted by ascending latency.
func ParetoFront(cands []Candidate, lat func(Candidate) float64) []int {
	idx := make([]int, len(cands))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool {
		li, lj := lat(cands[idx[i]]), lat(cands[idx[j]])
		if li != lj {
			return li < lj
		}
		return cands[idx[i]].Accuracy > cands[idx[j]].Accuracy
	})
	var front []int
	bestAcc := math.Inf(-1)
	for _, i := range idx {
		if cands[i].Accuracy > bestAcc {
			front = append(front, i)
			bestAcc = cands[i].Accuracy
		}
	}
	return front
}

// BestAccuracyUnder returns the highest accuracy among candidates whose
// metric value is at most budget, selecting by `lat` but reporting the
// candidate's true accuracy (how a NAS run would use a proxy).
func BestAccuracyUnder(cands []Candidate, lat func(Candidate) float64, budget float64) (Candidate, bool) {
	best := Candidate{Accuracy: math.Inf(-1)}
	found := false
	for _, c := range cands {
		if lat(c) <= budget && c.Accuracy > best.Accuracy {
			best = c
			found = true
		}
	}
	return best, found
}

// FrontAccuracyGain measures how much accuracy a proxy's Pareto front gives
// up (or gains) versus another proxy at matched true-latency budgets: for
// each candidate on frontA, find the best accuracy reachable on frontB at
// the same or lower true latency, and average the difference A-B.
func FrontAccuracyGain(cands []Candidate, frontA, frontB []int) float64 {
	if len(frontA) == 0 || len(frontB) == 0 {
		return math.NaN()
	}
	// Sort front B by true latency for budget lookups.
	b := append([]int(nil), frontB...)
	sort.Slice(b, func(i, j int) bool { return cands[b[i]].TrueLatMS < cands[b[j]].TrueLatMS })
	var sum float64
	var n int
	for _, ia := range frontA {
		budget := cands[ia].TrueLatMS
		bestB := math.Inf(-1)
		for _, ib := range b {
			if cands[ib].TrueLatMS > budget {
				break
			}
			if cands[ib].Accuracy > bestB {
				bestB = cands[ib].Accuracy
			}
		}
		if math.IsInf(bestB, -1) {
			continue
		}
		sum += cands[ia].Accuracy - bestB
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// LookupTable is the per-operator latency table baseline: each operator
// configuration maps to an average measured standalone latency; a model's
// latency estimate is the sum over its nodes. Unseen configurations fall
// back to the operator-type average, then to the global average.
type LookupTable struct {
	byKey  map[string]*acc
	byOp   map[string]*acc
	global acc
}

type acc struct {
	sum float64
	n   float64
}

func (a *acc) add(v float64) { a.sum += v; a.n++ }
func (a *acc) mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / a.n
}

// NewLookupTable creates an empty table.
func NewLookupTable() *LookupTable {
	return &LookupTable{byKey: make(map[string]*acc), byOp: make(map[string]*acc)}
}

// nodeKey buckets an operator configuration: type, kernel, stride, group
// class, output channels bucket and spatial bucket.
func nodeKey(n *onnx.Node, out onnx.Shape) string {
	ch, hw := 0, 0
	if len(out) >= 2 {
		ch = out[1]
	}
	if len(out) == 4 {
		hw = out[2]
	}
	chB := int(math.Round(math.Log2(float64(ch + 1))))
	hwB := int(math.Round(math.Log2(float64(hw + 1))))
	return fmt.Sprintf("%s|k%v|s%v|g%d|c%d|h%d",
		n.Op, n.Attrs.Ints("kernel_shape", nil), n.Attrs.Ints("strides", nil),
		n.Attrs.Int("group", 1), chB, hwB)
}

// Calibrate adds one model with known per-node standalone latencies
// (nodeLatMS maps node name → ms).
func (lt *LookupTable) Calibrate(g *onnx.Graph, nodeLatMS map[string]float64) error {
	shapes, err := g.InferShapes()
	if err != nil {
		return err
	}
	for _, n := range g.Nodes {
		v, ok := nodeLatMS[n.Name]
		if !ok {
			continue
		}
		key := nodeKey(n, shapes[n.Name])
		e, ok := lt.byKey[key]
		if !ok {
			e = &acc{}
			lt.byKey[key] = e
		}
		e.add(v)
		o, ok := lt.byOp[string(n.Op)]
		if !ok {
			o = &acc{}
			lt.byOp[string(n.Op)] = o
		}
		o.add(v)
		lt.global.add(v)
	}
	return nil
}

// Estimate sums per-node table entries for a model.
func (lt *LookupTable) Estimate(g *onnx.Graph) (float64, error) {
	shapes, err := g.InferShapes()
	if err != nil {
		return 0, err
	}
	var total float64
	for _, n := range g.Nodes {
		if e, ok := lt.byKey[nodeKey(n, shapes[n.Name])]; ok {
			total += e.mean()
			continue
		}
		if o, ok := lt.byOp[string(n.Op)]; ok {
			total += o.mean()
			continue
		}
		total += lt.global.mean()
	}
	return total, nil
}
