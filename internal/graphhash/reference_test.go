package graphhash

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"nnlqp/internal/onnx"
)

// This file freezes the map-based Eq. 1–2 implementation that produced every
// key persisted before the indexed graph form, together with the name-keyed
// traversals and attribute rendering it stood on. It shares no code with
// GraphKey; the property, golden and fuzz tests hold the two bit-identical.

func refSuccessors(g *onnx.Graph) map[string][]string {
	succ := make(map[string][]string, len(g.Nodes))
	for _, n := range g.Nodes {
		succ[n.Name] = nil
	}
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			if _, ok := succ[in]; ok {
				succ[in] = append(succ[in], n.Name)
			}
		}
	}
	for k := range succ {
		sort.Strings(succ[k])
	}
	return succ
}

func refSourceNodes(g *onnx.Graph) []*onnx.Node {
	byName := make(map[string]bool, len(g.Nodes))
	for _, n := range g.Nodes {
		byName[n.Name] = true
	}
	var out []*onnx.Node
	for _, n := range g.Nodes {
		src := true
		for _, in := range n.Inputs {
			if byName[in] {
				src = false
			}
		}
		if src {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func refReverseTopoSort(g *onnx.Graph) ([]*onnx.Node, error) {
	byName := make(map[string]*onnx.Node, len(g.Nodes))
	for _, n := range g.Nodes {
		byName[n.Name] = n
	}
	indeg := make(map[string]int, len(g.Nodes))
	succ := make(map[string][]string, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			if _, ok := byName[in]; ok {
				indeg[n.Name]++
				succ[in] = append(succ[in], n.Name)
			}
		}
	}
	var ready []string
	for _, n := range g.Nodes {
		if indeg[n.Name] == 0 {
			ready = append(ready, n.Name)
		}
	}
	sort.Strings(ready)
	fwd := make([]*onnx.Node, 0, len(g.Nodes))
	for len(ready) > 0 {
		name := ready[0]
		ready = ready[1:]
		fwd = append(fwd, byName[name])
		next := succ[name]
		sort.Strings(next)
		var unlocked []string
		for _, s := range next {
			indeg[s]--
			if indeg[s] == 0 {
				unlocked = append(unlocked, s)
			}
		}
		if len(unlocked) > 0 {
			ready = append(ready, unlocked...)
			sort.Strings(ready)
		}
	}
	if len(fwd) != len(g.Nodes) {
		return nil, fmt.Errorf("onnx: graph %q contains a cycle", g.Name)
	}
	out := make([]*onnx.Node, len(fwd))
	for i, n := range fwd {
		out[len(fwd)-1-i] = n
	}
	return out, nil
}

func refAttrString(a onnx.Attr) string {
	switch a.Kind {
	case onnx.AttrInt:
		return strconv.FormatInt(a.I, 10)
	case onnx.AttrInts:
		parts := make([]string, len(a.Ints))
		for i, v := range a.Ints {
			parts[i] = strconv.FormatInt(v, 10)
		}
		return "[" + strings.Join(parts, ",") + "]"
	case onnx.AttrFloat:
		return strconv.FormatFloat(a.F, 'g', -1, 64)
	case onnx.AttrString:
		return strconv.Quote(a.S)
	default:
		return "<invalid>"
	}
}

func refCanonical(as onnx.Attrs) string {
	keys := make([]string, 0, len(as))
	for k := range as {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(';')
		}
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(refAttrString(as[k]))
	}
	return sb.String()
}

// refKeyBytes is the big-endian 8-byte form a node or source key takes as
// hash input.
func refKeyBytes(k Key) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(k))
	return b[:]
}

func refFhash(parts ...[]byte) Key {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write(p)
	}
	return Key(h.Sum64())
}

// Hash is the reference: the whole-graph key H_G together with every node's
// H_v, keyed by node name.
func Hash(g *onnx.Graph) (Key, map[string]Key, error) {
	rev, err := refReverseTopoSort(g)
	if err != nil {
		return 0, nil, err
	}
	succ := refSuccessors(g)
	nodeHash := make(map[string]Key, len(rev))
	for _, n := range rev {
		// f_sort({H_u | u ∈ Suc(v)}): successor hashes in ascending order.
		sucKeys := make([]Key, 0, len(succ[n.Name]))
		for _, s := range succ[n.Name] {
			h, ok := nodeHash[s]
			if !ok {
				return 0, nil, fmt.Errorf("graphhash: successor %q of %q not yet hashed; order violated", s, n.Name)
			}
			sucKeys = append(sucKeys, h)
		}
		sort.Slice(sucKeys, func(i, j int) bool { return sucKeys[i] < sucKeys[j] })
		parts := [][]byte{[]byte(string(n.Op) + "{" + refCanonical(n.Attrs) + "}")}
		for _, k := range sucKeys {
			parts = append(parts, refKeyBytes(k))
		}
		nodeHash[n.Name] = refFhash(parts...)
	}

	// H_G over source-node hashes (sorted), plus declared input shapes.
	srcs := refSourceNodes(g)
	srcKeys := make([]Key, 0, len(srcs))
	for _, s := range srcs {
		srcKeys = append(srcKeys, nodeHash[s.Name])
	}
	sort.Slice(srcKeys, func(i, j int) bool { return srcKeys[i] < srcKeys[j] })
	var parts [][]byte
	for _, k := range srcKeys {
		parts = append(parts, refKeyBytes(k))
	}
	for _, vi := range g.Inputs {
		parts = append(parts, []byte("in:"+vi.Shape.String()))
	}
	return refFhash(parts...), nodeHash, nil
}
