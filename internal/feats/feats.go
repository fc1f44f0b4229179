// Package feats extracts the unified graph embedding inputs of NNLP
// (paper §6.1): per-node feature vectors
//
//	F_v^0 = F_v^code ⊕ F_v^attr ⊕ F_v^shape      (Eq. 3)
//
// (operator one-hot ⊕ attribute vector ⊕ output-shape encoding) and the
// whole-graph static feature
//
//	F_G^static = (batch, FLOPs, params, memory access)   (part of Eq. 5)
//
// plus the mean/variance normalization the paper applies to the attribute
// and shape fields. The same extraction serves operators, kernels,
// sub-graphs and whole networks, which is what makes the embedding
// "unified".
package feats

import (
	"math"

	"nnlqp/internal/onnx"
	"nnlqp/internal/tensor"
)

// Numeric feature layout (after the operator one-hot):
//
//	0 kernel_h   1 kernel_w   2 stride_h   3 stride_w
//	4 pad_total  5 log2 group 6 clip_range 7 aux (LRN size / concat arity)
//	8 log N      9 log C     10 log H     11 log W
//	12 log numel 13 log out-bytes(fp32-equivalent)
//	14 log node-FLOPs  15 log node-MAC  16 log node-params
//
// The last three expose each operator's static cost accounting to the GNN.
// They are derivable from the preceding fields, but surfacing them directly
// makes the latency-relevant signal family-independent ("node features
// cover factors that affect the operator latency", §6.1).
const (
	numAttr  = 8
	numShape = 6
	numCost  = 3
)

// NumOps is the operator one-hot width.
var NumOps = len(onnx.AllOpTypes)

// FeatureDim is the per-node feature vector length.
var FeatureDim = NumOps + numAttr + numShape + numCost

// StaticDim is the length of the graph-level static feature.
const StaticDim = 4

// GraphFeatures is the extracted, model-ready form of one graph.
type GraphFeatures struct {
	// NodeNames holds node names in topological order; row i of X is the
	// feature vector of NodeNames[i].
	NodeNames []string
	// X is the n×FeatureDim node feature matrix (F_v^0 rows).
	X *tensor.Matrix
	// Adj is the undirected neighbour list over node indices (N(v) of
	// Eq. 4: both producers and consumers).
	Adj [][]int
	// Static is F_G^static: batch, log-FLOPs, log-params, log-MAC.
	Static []float64
}

// NumNodes returns the node count.
func (gf *GraphFeatures) NumNodes() int { return len(gf.NodeNames) }

// cachedFeats is the payload ExtractCached hangs off a graph's index.
type cachedFeats struct {
	elemSize int
	gf       *GraphFeatures
}

// ExtractCached is Extract memoized on the graph's index: the first call per
// (*onnx.Graph, elemSize) pays the full extraction, later calls return the
// cached features in two atomic loads. The returned features are shared and
// must be treated as read-only — clone (or pack a copy) before normalizing.
// Mutating a graph after extraction requires (*onnx.Graph).InvalidateMemo.
func ExtractCached(g *onnx.Graph, elemSize int) (*GraphFeatures, error) {
	ix, err := g.Index()
	if err != nil {
		return nil, err
	}
	if c, ok := ix.FeatMemo().(*cachedFeats); ok && c.elemSize == elemSize {
		return c.gf, nil
	}
	gf, err := Extract(g, elemSize)
	if err != nil {
		return nil, err
	}
	ix.SetFeatMemo(&cachedFeats{elemSize: elemSize, gf: gf})
	return gf, nil
}

// Extract computes features for a graph. elemSize sets the byte width used
// in memory-access accounting (4 = fp32, matching the paper's use of the
// original model's statistics). Row order and adjacency come from the
// graph's index; shapes and costs are inferred from g.Inputs at call time.
func Extract(g *onnx.Graph, elemSize int) (*GraphFeatures, error) {
	ix, err := g.Index()
	if err != nil {
		return nil, err
	}
	shapes, err := g.InferShapes()
	if err != nil {
		return nil, err
	}
	cost, err := g.CostWithShapes(shapes, elemSize)
	if err != nil {
		return nil, err
	}

	n := ix.NumNodes()
	gf := &GraphFeatures{
		NodeNames: make([]string, n),
		X:         tensor.NewMatrix(n, FeatureDim),
		Adj:       make([][]int, n),
		Static: []float64{
			float64(g.BatchSize()),
			math.Log1p(float64(cost.FLOPs)),
			math.Log1p(float64(cost.Params)),
			math.Log1p(float64(cost.MAC)),
		},
	}

	// row[v] is node v's row; deg[i] counts row i's neighbours, one per edge
	// end, so the adjacency lists can share one exact-size backing array.
	ids := make([]int32, 2*n)
	row, deg := ids[:n], ids[n:]
	for i, v := range ix.Topo {
		row[v] = int32(i)
	}
	edges := 0
	for i, v := range ix.Topo {
		nd := g.Nodes[v]
		gf.NodeNames[i] = nd.Name
		x := gf.X.Row(i)
		x[ix.Ops[v]] = 1
		fillAttr(x[NumOps:NumOps+numAttr], nd)
		fillShape(x[NumOps+numAttr:NumOps+numAttr+numShape], shapes[nd.Name], elemSize)
		nc := cost.PerNode[nd.Name]
		costRow := x[NumOps+numAttr+numShape:]
		costRow[0] = math.Log1p(float64(nc.FLOPs))
		costRow[1] = math.Log1p(float64(nc.MAC()))
		costRow[2] = math.Log1p(float64(nc.Params))
		for _, in := range ix.Inputs(v) {
			if in >= 0 {
				deg[i]++
				deg[row[in]]++
				edges += 2
			}
		}
	}

	// Undirected adjacency: for each edge producer→consumer, in row order
	// then input order, both nodes list each other.
	backing := make([]int, edges)
	for i := range gf.Adj {
		gf.Adj[i] = backing[:0:deg[i]]
		backing = backing[deg[i]:]
	}
	for i, v := range ix.Topo {
		for _, in := range ix.Inputs(v) {
			if in >= 0 {
				j := int(row[in])
				gf.Adj[i] = append(gf.Adj[i], j)
				gf.Adj[j] = append(gf.Adj[j], i)
			}
		}
	}
	return gf, nil
}

func fillAttr(dst []float64, n *onnx.Node) {
	if k := n.Attrs.Ints("kernel_shape", nil); len(k) == 2 {
		dst[0], dst[1] = float64(k[0]), float64(k[1])
	}
	if s := n.Attrs.Ints("strides", nil); len(s) == 2 {
		dst[2], dst[3] = float64(s[0]), float64(s[1])
	}
	if p := n.Attrs.Ints("pads", nil); len(p) == 4 {
		dst[4] = float64(p[0] + p[1] + p[2] + p[3])
	}
	dst[5] = math.Log2(float64(n.Attrs.Int("group", 1)))
	if n.Op == onnx.OpClip {
		dst[6] = n.Attrs.Float("max", 0) - n.Attrs.Float("min", 0)
	}
	switch n.Op {
	case onnx.OpLRN:
		dst[7] = float64(n.Attrs.Int("size", 0))
	case onnx.OpConcat:
		dst[7] = float64(len(n.Inputs))
	case onnx.OpGemm:
		dst[7] = math.Log1p(float64(n.Attrs.Int("out_features", 0)))
	case onnx.OpConv:
		dst[7] = math.Log1p(float64(n.Attrs.Int("channels", 0)))
	}
}

func fillShape(dst []float64, s onnx.Shape, elemSize int) {
	if len(s) == 0 {
		return
	}
	dim := func(i int) float64 {
		if i < len(s) {
			return float64(s[i])
		}
		return 1
	}
	dst[0] = math.Log1p(dim(0))
	dst[1] = math.Log1p(dim(1))
	dst[2] = math.Log1p(dim(2))
	dst[3] = math.Log1p(dim(3))
	dst[4] = math.Log1p(float64(s.Numel()))
	dst[5] = math.Log1p(float64(s.Numel() * int64(elemSize)))
}

// Normalizer standardizes the numeric (non-one-hot) node feature columns
// and the static features with training-set means and variances, the
// paper's "applying the mean and variance for normalization".
type Normalizer struct {
	// Mean/Std cover the numeric node-feature columns (FeatureDim-NumOps
	// entries each).
	Mean []float64
	Std  []float64
	// StaticMean/StaticStd cover the StaticDim static features.
	StaticMean []float64
	StaticStd  []float64
}

// FitNormalizer computes normalization statistics over a training set.
func FitNormalizer(gfs []*GraphFeatures) *Normalizer {
	nNum := FeatureDim - NumOps
	nz := &Normalizer{
		Mean: make([]float64, nNum), Std: make([]float64, nNum),
		StaticMean: make([]float64, StaticDim), StaticStd: make([]float64, StaticDim),
	}
	var rows float64
	for _, gf := range gfs {
		for i := 0; i < gf.X.Rows; i++ {
			row := gf.X.Row(i)[NumOps:]
			for j, v := range row {
				nz.Mean[j] += v
			}
			rows++
		}
	}
	if rows == 0 {
		for j := range nz.Std {
			nz.Std[j] = 1
		}
		for j := range nz.StaticStd {
			nz.StaticStd[j] = 1
		}
		return nz
	}
	for j := range nz.Mean {
		nz.Mean[j] /= rows
	}
	for _, gf := range gfs {
		for i := 0; i < gf.X.Rows; i++ {
			row := gf.X.Row(i)[NumOps:]
			for j, v := range row {
				d := v - nz.Mean[j]
				nz.Std[j] += d * d
			}
		}
	}
	for j := range nz.Std {
		nz.Std[j] = math.Sqrt(nz.Std[j] / rows)
		if nz.Std[j] < 1e-8 {
			nz.Std[j] = 1
		}
	}

	for _, gf := range gfs {
		for j, v := range gf.Static {
			nz.StaticMean[j] += v
		}
	}
	n := float64(len(gfs))
	for j := range nz.StaticMean {
		nz.StaticMean[j] /= n
	}
	for _, gf := range gfs {
		for j, v := range gf.Static {
			d := v - nz.StaticMean[j]
			nz.StaticStd[j] += d * d
		}
	}
	for j := range nz.StaticStd {
		nz.StaticStd[j] = math.Sqrt(nz.StaticStd[j] / n)
		if nz.StaticStd[j] < 1e-8 {
			nz.StaticStd[j] = 1
		}
	}
	return nz
}

// Apply standardizes gf in place.
func (nz *Normalizer) Apply(gf *GraphFeatures) {
	nz.ApplyX(gf.X)
	nz.ApplyStatic(gf.Static)
}

// ApplyX standardizes the numeric columns of a node-feature matrix in
// place. Rows are independent, so applying it to a packed batch (several
// graphs' rows concatenated) is bit-identical to applying it per graph —
// the batched prediction path relies on that.
func (nz *Normalizer) ApplyX(x *tensor.Matrix) {
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)[NumOps:]
		for j := range row {
			row[j] = (row[j] - nz.Mean[j]) / nz.Std[j]
		}
	}
}

// ApplyStatic standardizes one graph's static feature vector in place.
func (nz *Normalizer) ApplyStatic(static []float64) {
	for j := range static {
		static[j] = (static[j] - nz.StaticMean[j]) / nz.StaticStd[j]
	}
}

// Clone deep-copies the features (Apply mutates, so callers that reuse
// extracted features across normalizers need copies).
func (gf *GraphFeatures) Clone() *GraphFeatures {
	out := &GraphFeatures{
		NodeNames: append([]string(nil), gf.NodeNames...),
		X:         gf.X.Clone(),
		Adj:       make([][]int, len(gf.Adj)),
		Static:    append([]float64(nil), gf.Static...),
	}
	for i, a := range gf.Adj {
		out.Adj[i] = append([]int(nil), a...)
	}
	return out
}
