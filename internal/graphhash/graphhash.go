// Package graphhash implements NNLQ's hash-based model encoding (paper
// §5.2, Eq. 1–2): a structural 8-byte key that uniquely identifies a DNN
// model by its topology and operator attributes, enabling O(1) retrieval of
// latency records from the evolving database.
//
// For node v the encoding is
//
//	H_v = f_hash(f_sort(A_v) ⊕ f_sort({H_u | u ∈ Suc(v)}))
//
// computed in reverse topological order so every successor hash exists
// before it is consumed, and the whole-graph encoding is
//
//	H_G = f_hash(f_sort({H_u | Pre(u) = ∅}))
//
// over the source nodes. Two graphs receive the same key iff they share
// structure and attributes, so the key doubles as a structural-equality
// fingerprint. As an extension over the paper we also fold the declared
// graph input shapes into H_G: the same topology at a different input
// resolution has different latency, so it must be a different cache line.
//
// The walk runs over the graph's onnx.Index (int32 ids, CSR consumer lists,
// canonical attribute bytes) with pooled scratch. Keys are persisted in the
// database, so every byte of the f_hash input is frozen: the reference
// implementation and golden keys in this package's tests pin it.
package graphhash

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"nnlqp/internal/onnx"
)

// Key is the 8-byte graph hash stored in the model table.
type Key uint64

// String renders the key as fixed-width hex, the form shown to users and
// stored in logs.
func (k Key) String() string { return fmt.Sprintf("%016x", uint64(k)) }

// f_hash is FNV-1a, folded inline so node and graph codes stream through a
// running 64-bit state instead of a hash.Hash64 and per-part byte slices.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func foldBytes(h uint64, p []byte) uint64 {
	for _, b := range p {
		h = (h ^ uint64(b)) * fnvPrime
	}
	return h
}

// foldKey folds k's big-endian bytes, the form Key.Bytes renders.
func foldKey(h, k uint64) uint64 {
	for shift := 56; shift >= 0; shift -= 8 {
		h = (h ^ (k >> uint(shift) & 0xff)) * fnvPrime
	}
	return h
}

// scratch is one hash walk's working memory, recycled through pool.
type scratch struct {
	node []uint64 // H_v by node id
	sort []uint64 // the f_sort operand being assembled
}

var pool = sync.Pool{New: func() any { return new(scratch) }}

// topologyState walks the index in reverse topological order, so every
// consumer's H_v exists before it is folded into its producers (Eq. 1), and
// returns the FNV state of H_G after the sorted source-node hashes (Eq. 2) —
// everything about the key that topology and attributes determine.
func topologyState(ix *onnx.Index) uint64 {
	sc := pool.Get().(*scratch)
	n := ix.NumNodes()
	if cap(sc.node) < n {
		sc.node = make([]uint64, n)
	}
	node := sc.node[:n]
	for i := n - 1; i >= 0; i-- {
		v := ix.Topo[i]
		h := foldBytes(fnvOffset, ix.AttrBytes(v))
		keys := sc.sort[:0]
		for _, c := range ix.Consumers(v) {
			keys = append(keys, node[c])
		}
		slices.Sort(keys)
		for _, k := range keys {
			h = foldKey(h, k)
		}
		sc.sort = keys
		node[v] = h
	}
	keys := sc.sort[:0]
	for v := int32(0); int(v) < n; v++ {
		src := true
		for _, in := range ix.Inputs(v) {
			src = src && in < 0
		}
		if src {
			keys = append(keys, node[v])
		}
	}
	slices.Sort(keys)
	h := uint64(fnvOffset)
	for _, k := range keys {
		h = foldKey(h, k)
	}
	sc.sort = keys
	pool.Put(sc)
	return h
}

// GraphKey computes the whole-graph key. The topology-and-attribute part is
// computed once per graph instance and kept on the graph's Index; the declared
// input shapes are folded in on every call, because callers rewrite the batch
// dimension of a decoded graph in place. Code that mutates nodes or
// attributes after hashing must call (*onnx.Graph).InvalidateMemo, or the
// stale key will keep being served.
func GraphKey(g *onnx.Graph) (Key, error) {
	ix, err := g.Index()
	if err != nil {
		return 0, err
	}
	h := ix.HashMemo()
	if h == 0 {
		// A state of exactly 0 is recomputed on every call, which is only slow.
		h = topologyState(ix)
		ix.SetHashMemo(h)
	}
	var dim [20]byte
	for i := range g.Inputs {
		h = foldBytes(h, []byte("in:("))
		for j, d := range g.Inputs[i].Shape {
			if j > 0 {
				h = (h ^ ',') * fnvPrime
			}
			h = foldBytes(h, strconv.AppendInt(dim[:0], int64(d), 10))
		}
		h = (h ^ ')') * fnvPrime
	}
	return Key(h), nil
}

// MustGraphKey is GraphKey for graphs whose validity is a code invariant.
func MustGraphKey(g *onnx.Graph) Key {
	k, err := GraphKey(g)
	if err != nil {
		panic(err)
	}
	return k
}
