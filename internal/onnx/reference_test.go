package onnx

import (
	"fmt"
	"sort"
)

// The name-keyed traversals Graph carried before the Index replaced them,
// kept verbatim as the reference the index is checked against: RefTopoSort
// fixes the order feature rows and kernels follow, the other three the
// adjacency the graph hash consumes.

// RefSuccessors returns, for each node name, the names of nodes that consume
// its output, sorted, one entry per consuming edge.
func RefSuccessors(g *Graph) map[string][]string {
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

// RefPredecessors returns, for each node name, the names of producer nodes
// it consumes (graph inputs excluded), sorted.
func RefPredecessors(g *Graph) map[string][]string {
	byName := make(map[string]*Node, len(g.Nodes))
	for _, n := range g.Nodes {
		byName[n.Name] = n
	}
	pred := make(map[string][]string, len(g.Nodes))
	for _, n := range g.Nodes {
		var ps []string
		for _, in := range n.Inputs {
			if _, ok := byName[in]; ok {
				ps = append(ps, in)
			}
		}
		sort.Strings(ps)
		pred[n.Name] = ps
	}
	return pred
}

// RefSourceNodes returns the nodes fed only by graph inputs, sorted by name.
func RefSourceNodes(g *Graph) []*Node {
	pred := RefPredecessors(g)
	var out []*Node
	for _, n := range g.Nodes {
		if len(pred[n.Name]) == 0 {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RefTopoSort returns the nodes in the deterministic topological order
// (producers first, smallest ready name next), or an error on a cycle.
func RefTopoSort(g *Graph) ([]*Node, error) {
	byName := make(map[string]*Node, len(g.Nodes))
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
	out := make([]*Node, 0, len(g.Nodes))
	for len(ready) > 0 {
		name := ready[0]
		ready = ready[1:]
		out = append(out, byName[name])
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
	if len(out) != len(g.Nodes) {
		return nil, fmt.Errorf("onnx: graph %q contains a cycle", g.Name)
	}
	return out, nil
}
