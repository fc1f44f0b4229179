// Package db is the storage substrate of the reproduction: an embedded,
// WAL-backed relational engine standing in for the MySQL database of the
// paper's NNLQ (§5.2). It provides typed tables with auto-increment primary
// keys, unique and non-unique secondary indexes, a B-tree ordered index,
// durable append-only persistence, and the concrete model / platform /
// latency schema of the paper's ER diagram (Fig. 4).
package db

import "sort"

// BTree is an in-memory B-tree mapping uint64 keys to uint64 values, used
// for primary keys and for the 8-byte graph-hash index. Degree t: every
// node except the root holds between t-1 and 2t-1 keys.
type BTree struct {
	root *btreeNode
	size int
}

const btreeDegree = 16 // t

type btreeNode struct {
	keys     []uint64
	vals     []uint64
	children []*btreeNode // nil for leaves
	leaf     bool
}

// NewBTree creates an empty tree.
func NewBTree() *BTree {
	return &BTree{root: &btreeNode{leaf: true}}
}

// Len returns the number of stored keys.
func (t *BTree) Len() int { return t.size }

// Clone returns a structurally independent deep copy of the tree, used by
// the copy-on-write snapshot machinery: mutations to either tree never
// touch the other's nodes.
func (t *BTree) Clone() *BTree {
	return &BTree{root: t.root.clone(), size: t.size}
}

func (n *btreeNode) clone() *btreeNode {
	c := &btreeNode{
		keys: append([]uint64(nil), n.keys...),
		vals: append([]uint64(nil), n.vals...),
		leaf: n.leaf,
	}
	if n.children != nil {
		c.children = make([]*btreeNode, len(n.children))
		for i, ch := range n.children {
			c.children[i] = ch.clone()
		}
	}
	return c
}

// Get returns the value for key and whether it exists.
func (t *BTree) Get(key uint64) (uint64, bool) {
	n := t.root
	for {
		i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
		if i < len(n.keys) && n.keys[i] == key {
			return n.vals[i], true
		}
		if n.leaf {
			return 0, false
		}
		n = n.children[i]
	}
}

// Set inserts key→value, replacing an existing value. It reports whether a
// new key was inserted (false when replaced).
func (t *BTree) Set(key, val uint64) bool {
	if replaced := t.replaceIfPresent(key, val); replaced {
		return false
	}
	r := t.root
	if len(r.keys) == 2*btreeDegree-1 {
		newRoot := &btreeNode{children: []*btreeNode{r}}
		newRoot.splitChild(0)
		t.root = newRoot
	}
	t.root.insertNonFull(key, val)
	t.size++
	return true
}

func (t *BTree) replaceIfPresent(key, val uint64) bool {
	n := t.root
	for {
		i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
		if i < len(n.keys) && n.keys[i] == key {
			n.vals[i] = val
			return true
		}
		if n.leaf {
			return false
		}
		n = n.children[i]
	}
}

func (n *btreeNode) splitChild(i int) {
	t := btreeDegree
	child := n.children[i]
	right := &btreeNode{leaf: child.leaf}
	right.keys = append(right.keys, child.keys[t:]...)
	right.vals = append(right.vals, child.vals[t:]...)
	if !child.leaf {
		right.children = append(right.children, child.children[t:]...)
		child.children = child.children[:t]
	}
	midKey, midVal := child.keys[t-1], child.vals[t-1]
	child.keys = child.keys[:t-1]
	child.vals = child.vals[:t-1]

	n.keys = append(n.keys, 0)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = midKey
	n.vals = append(n.vals, 0)
	copy(n.vals[i+1:], n.vals[i:])
	n.vals[i] = midVal
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

func (n *btreeNode) insertNonFull(key, val uint64) {
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
	if n.leaf {
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.vals = append(n.vals, 0)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = val
		return
	}
	if len(n.children[i].keys) == 2*btreeDegree-1 {
		n.splitChild(i)
		if key > n.keys[i] {
			i++
		} else if key == n.keys[i] {
			n.vals[i] = val
			return
		}
	}
	n.children[i].insertNonFull(key, val)
}

// Delete removes key, reporting whether it existed. Implementation is the
// standard CLRS deletion with borrow/merge rebalancing.
func (t *BTree) Delete(key uint64) bool {
	if _, ok := t.Get(key); !ok {
		return false
	}
	t.root.delete(key)
	if len(t.root.keys) == 0 && !t.root.leaf {
		t.root = t.root.children[0]
	}
	t.size--
	return true
}

func (n *btreeNode) delete(key uint64) {
	tDeg := btreeDegree
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
	if i < len(n.keys) && n.keys[i] == key {
		if n.leaf {
			n.keys = append(n.keys[:i], n.keys[i+1:]...)
			n.vals = append(n.vals[:i], n.vals[i+1:]...)
			return
		}
		// Internal node: replace with predecessor or successor, or merge.
		if len(n.children[i].keys) >= tDeg {
			pk, pv := n.children[i].max()
			n.keys[i], n.vals[i] = pk, pv
			n.children[i].delete(pk)
			return
		}
		if len(n.children[i+1].keys) >= tDeg {
			sk, sv := n.children[i+1].min()
			n.keys[i], n.vals[i] = sk, sv
			n.children[i+1].delete(sk)
			return
		}
		n.mergeChildren(i)
		n.children[i].delete(key)
		return
	}
	if n.leaf {
		return // not present
	}
	// Ensure the child we descend into has >= t keys.
	if len(n.children[i].keys) < tDeg {
		i = n.fill(i)
	}
	n.children[i].delete(key)
}

// fill guarantees children[i] has at least t keys, borrowing or merging;
// returns the (possibly shifted) child index to descend into.
func (n *btreeNode) fill(i int) int {
	tDeg := btreeDegree
	if i > 0 && len(n.children[i-1].keys) >= tDeg {
		// Borrow from left sibling.
		child, left := n.children[i], n.children[i-1]
		child.keys = append([]uint64{n.keys[i-1]}, child.keys...)
		child.vals = append([]uint64{n.vals[i-1]}, child.vals...)
		if !child.leaf {
			child.children = append([]*btreeNode{left.children[len(left.children)-1]}, child.children...)
			left.children = left.children[:len(left.children)-1]
		}
		n.keys[i-1] = left.keys[len(left.keys)-1]
		n.vals[i-1] = left.vals[len(left.vals)-1]
		left.keys = left.keys[:len(left.keys)-1]
		left.vals = left.vals[:len(left.vals)-1]
		return i
	}
	if i < len(n.children)-1 && len(n.children[i+1].keys) >= tDeg {
		// Borrow from right sibling.
		child, right := n.children[i], n.children[i+1]
		child.keys = append(child.keys, n.keys[i])
		child.vals = append(child.vals, n.vals[i])
		if !child.leaf {
			child.children = append(child.children, right.children[0])
			right.children = right.children[1:]
		}
		n.keys[i] = right.keys[0]
		n.vals[i] = right.vals[0]
		right.keys = right.keys[1:]
		right.vals = right.vals[1:]
		return i
	}
	if i < len(n.children)-1 {
		n.mergeChildren(i)
		return i
	}
	n.mergeChildren(i - 1)
	return i - 1
}

// mergeChildren merges children[i], keys[i], children[i+1] into one node.
func (n *btreeNode) mergeChildren(i int) {
	left, right := n.children[i], n.children[i+1]
	left.keys = append(left.keys, n.keys[i])
	left.vals = append(left.vals, n.vals[i])
	left.keys = append(left.keys, right.keys...)
	left.vals = append(left.vals, right.vals...)
	left.children = append(left.children, right.children...)
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.vals = append(n.vals[:i], n.vals[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

func (n *btreeNode) max() (uint64, uint64) {
	for !n.leaf {
		n = n.children[len(n.children)-1]
	}
	return n.keys[len(n.keys)-1], n.vals[len(n.vals)-1]
}

func (n *btreeNode) min() (uint64, uint64) {
	for !n.leaf {
		n = n.children[0]
	}
	return n.keys[0], n.vals[0]
}

// Ascend visits all key/value pairs in ascending key order until fn returns
// false.
func (t *BTree) Ascend(fn func(key, val uint64) bool) {
	t.root.ascend(fn)
}

func (n *btreeNode) ascend(fn func(key, val uint64) bool) bool {
	for i := range n.keys {
		if !n.leaf {
			if !n.children[i].ascend(fn) {
				return false
			}
		}
		if !fn(n.keys[i], n.vals[i]) {
			return false
		}
	}
	if !n.leaf {
		return n.children[len(n.children)-1].ascend(fn)
	}
	return true
}
