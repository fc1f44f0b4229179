package onnx

import (
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Index is the compact indexed form of a Graph: node ids are int32 positions
// in Graph.Nodes, and everything the serving path used to re-derive from
// tensor names per call — resolved inputs, consumer lists, a topological
// order, op codes, the canonical attribute bytes the graph hash consumes — is
// laid out once in flat slices. Building it performs every structural check,
// so a graph that has an Index is a valid graph.
//
// The index covers topology and attributes only. Declared input shapes are
// absent on purpose: the serving path rewrites Inputs[i].Shape[0] after
// decoding, so everything shape-derived reads g.Inputs at call time.
//
// All fields are read-only after build; the index is shared by every
// goroutine that holds the graph.
type Index struct {
	// Topo lists node ids in the deterministic topological order: producers
	// first, the lexicographically smallest ready node name next. Feature
	// rows and kernel order follow it.
	Topo []int32
	// InOff/In is the CSR of each node's inputs in declaration order. An
	// entry v >= 0 is the id of the producing node; v < 0 is graph input ^v.
	InOff, In []int32
	// SuccOff/Succ is the CSR of each node's consumers in ascending id
	// order, one entry per consuming edge: Add(x, x) appears twice under x.
	SuccOff, Succ []int32
	// Outputs holds Graph.Outputs resolved with In's encoding.
	Outputs []int32
	// Ops holds each node's code in AllOpTypes.
	Ops []uint8

	// attrs holds every node's canonical `Op{k=v;…}` rendering back to back;
	// node i owns attrs[attrOff[i]:attrOff[i+1]].
	attrOff []int32
	attrs   []byte

	// Derived values other packages hang off the index, so that dropping the
	// index (InvalidateMemo) drops them with it.
	hash atomic.Uint64
	feat atomic.Pointer[any]
}

// NumNodes returns the number of indexed nodes.
func (ix *Index) NumNodes() int { return len(ix.Ops) }

// Inputs returns node i's resolved inputs in declaration order.
func (ix *Index) Inputs(i int32) []int32 { return ix.In[ix.InOff[i]:ix.InOff[i+1]] }

// Consumers returns the ids of the nodes reading node i's output.
func (ix *Index) Consumers(i int32) []int32 { return ix.Succ[ix.SuccOff[i]:ix.SuccOff[i+1]] }

// AttrBytes returns node i's canonical `Op{k=v;…}` bytes: f_sort(A_v) of the
// graph hash (paper Eq. 1).
func (ix *Index) AttrBytes(i int32) []byte { return ix.attrs[ix.attrOff[i]:ix.attrOff[i+1]] }

// HashMemo returns the value stored by SetHashMemo, or 0. internal/graphhash
// keeps its topology-and-attribute hash state here.
func (ix *Index) HashMemo() uint64 { return ix.hash.Load() }

// SetHashMemo stores a graph-hash state on the index.
func (ix *Index) SetHashMemo(h uint64) { ix.hash.Store(h) }

// FeatMemo returns the payload stored by SetFeatMemo (owned by
// internal/feats; opaque here), or nil.
func (ix *Index) FeatMemo() any {
	if p := ix.feat.Load(); p != nil {
		return *p
	}
	return nil
}

// SetFeatMemo stores an opaque feature payload on the index.
func (ix *Index) SetFeatMemo(v any) { ix.feat.Store(&v) }

// Index returns the graph's indexed form, building it on first use. The
// result is cached on the graph until InvalidateMemo; a graph that fails a
// structural check returns the error and caches nothing.
func (g *Graph) Index() (*Index, error) {
	if ix := g.derived.Load(); ix != nil {
		return ix, nil
	}
	ix, err := buildIndex(g)
	if err != nil {
		return nil, err
	}
	g.derived.Store(ix)
	return ix, nil
}

// indexScratch is the builder's working memory, recycled through indexPool.
type indexScratch struct {
	table []int32 // open-addressing name table: 0 empty, i+1 node i, -(j+1) input j
	indeg []int32
	heap  []int32
	buf   []byte // every node's canonical attribute bytes, before the exact-size copy
}

var (
	indexPool = sync.Pool{New: func() any { return new(indexScratch) }}
	nameSeed  = maphash.MakeSeed()
)

// grow returns s resized to n zeroed entries, reusing its backing array.
func grow(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// tensorName returns the name a table entry stands for.
func (g *Graph) tensorName(e int32) string {
	if e > 0 {
		return g.Nodes[e-1].Name
	}
	return g.Inputs[-e-1].Name
}

// declare adds name to the table under entry e, or reports a duplicate.
func (sc *indexScratch) declare(g *Graph, name string, e int32) bool {
	mask := uint64(len(sc.table) - 1)
	for h := maphash.String(nameSeed, name) & mask; ; h = (h + 1) & mask {
		switch cur := sc.table[h]; {
		case cur == 0:
			sc.table[h] = e
			return true
		case g.tensorName(cur) == name:
			return false
		}
	}
}

// resolve maps a tensor name to In's encoding.
func (sc *indexScratch) resolve(g *Graph, name string) (int32, bool) {
	mask := uint64(len(sc.table) - 1)
	for h := maphash.String(nameSeed, name) & mask; ; h = (h + 1) & mask {
		switch cur := sc.table[h]; {
		case cur == 0:
			return 0, false
		case g.tensorName(cur) == name:
			if cur > 0 {
				return cur - 1, true
			}
			return cur, true // -(j+1) == ^j
		}
	}
}

// push and pop keep sc.heap a min-heap of node ids ordered by node name.
func (sc *indexScratch) push(g *Graph, id int32) {
	h := append(sc.heap, id)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if g.Nodes[h[p]].Name <= g.Nodes[h[i]].Name {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	sc.heap = h
}

func (sc *indexScratch) pop(g *Graph) int32 {
	h := sc.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && g.Nodes[h[c+1]].Name < g.Nodes[h[c]].Name {
			c++
		}
		if g.Nodes[h[i]].Name <= g.Nodes[h[c]].Name {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	sc.heap = h
	return top
}

// buildIndex is the one pass over a string-keyed graph: it resolves names,
// rejects duplicate or undefined tensors, unknown ops, input-less nodes and
// cycles, and emits the flat form.
func buildIndex(g *Graph) (*Index, error) {
	if len(g.Inputs) == 0 {
		return nil, fmt.Errorf("onnx: graph %q has no inputs", g.Name)
	}
	if len(g.Outputs) == 0 {
		return nil, fmt.Errorf("onnx: graph %q has no outputs", g.Name)
	}
	n := len(g.Nodes)
	sc := indexPool.Get().(*indexScratch)
	defer indexPool.Put(sc)

	size := 8
	for size < 2*(n+len(g.Inputs)) {
		size *= 2
	}
	sc.table = grow(sc.table, size)
	for j, vi := range g.Inputs {
		if vi.Name == "" {
			return nil, fmt.Errorf("onnx: graph %q has an unnamed input", g.Name)
		}
		if !sc.declare(g, vi.Name, int32(-j-1)) {
			return nil, fmt.Errorf("onnx: duplicate input name %q", vi.Name)
		}
	}
	edges := 0
	ops := make([]uint8, n)
	for i, nd := range g.Nodes {
		if nd.Name == "" {
			return nil, fmt.Errorf("onnx: graph %q has an unnamed node", g.Name)
		}
		if !sc.declare(g, nd.Name, int32(i+1)) {
			return nil, fmt.Errorf("onnx: duplicate tensor name %q", nd.Name)
		}
		code, ok := OpCode(nd.Op)
		if !ok {
			return nil, fmt.Errorf("onnx: node %q has unknown op %q", nd.Name, nd.Op)
		}
		ops[i] = uint8(code)
		if len(nd.Inputs) == 0 {
			return nil, fmt.Errorf("onnx: node %q has no inputs", nd.Name)
		}
		edges += len(nd.Inputs)
	}

	// One slab backs every int32 slice of the index.
	slab := make([]int32, 4*(n+1)+2*edges+len(g.Outputs))
	carve := func(k int) []int32 {
		s := slab[:k:k]
		slab = slab[k:]
		return s
	}
	ix := &Index{
		Ops:     ops,
		Topo:    carve(n)[:0],
		InOff:   carve(n + 1),
		In:      carve(edges),
		SuccOff: carve(n + 1),
		Outputs: carve(len(g.Outputs)),
		attrOff: carve(n + 1),
	}

	// Resolve inputs; count consumers per producer and producers per node.
	sc.indeg = grow(sc.indeg, n)
	pos := int32(0)
	for i, nd := range g.Nodes {
		for _, in := range nd.Inputs {
			v, ok := sc.resolve(g, in)
			if !ok {
				return nil, fmt.Errorf("onnx: node %q consumes undefined tensor %q", nd.Name, in)
			}
			ix.In[pos] = v
			pos++
			if v >= 0 {
				ix.SuccOff[v+1]++
				sc.indeg[i]++
			}
		}
		ix.InOff[i+1] = pos
	}
	for i, out := range g.Outputs {
		v, ok := sc.resolve(g, out)
		if !ok {
			return nil, fmt.Errorf("onnx: graph output %q is undefined", out)
		}
		ix.Outputs[i] = v
	}
	for i := 0; i < n; i++ {
		ix.SuccOff[i+1] += ix.SuccOff[i]
	}
	ix.Succ = carve(int(ix.SuccOff[n]))
	// Fill consumers in ascending id order; SuccOff[v] doubles as the write
	// cursor and is shifted back afterwards.
	for i := 0; i < n; i++ {
		for _, v := range ix.Inputs(int32(i)) {
			if v >= 0 {
				ix.Succ[ix.SuccOff[v]] = int32(i)
				ix.SuccOff[v]++
			}
		}
	}
	copy(ix.SuccOff[1:], ix.SuccOff[:n])
	ix.SuccOff[0] = 0

	// Kahn's algorithm, always releasing the smallest ready name.
	sc.heap = sc.heap[:0]
	for i := 0; i < n; i++ {
		if sc.indeg[i] == 0 {
			sc.push(g, int32(i))
		}
	}
	for len(sc.heap) > 0 {
		v := sc.pop(g)
		ix.Topo = append(ix.Topo, v)
		for _, c := range ix.Consumers(v) {
			if sc.indeg[c]--; sc.indeg[c] == 0 {
				sc.push(g, c)
			}
		}
	}
	if len(ix.Topo) != n {
		return nil, fmt.Errorf("onnx: graph %q contains a cycle", g.Name)
	}

	// Canonical attribute bytes, rendered through the pooled buffer and kept
	// as one exact-size copy.
	buf := sc.buf[:0]
	for i, nd := range g.Nodes {
		ix.attrOff[i] = int32(len(buf))
		buf = append(buf, nd.Op...)
		buf = append(buf, '{')
		buf = nd.Attrs.AppendCanonical(buf)
		buf = append(buf, '}')
	}
	ix.attrOff[n] = int32(len(buf))
	sc.buf = buf
	ix.attrs = append([]byte(nil), buf...)
	return ix, nil
}
