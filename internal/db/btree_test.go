package db

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBTreeBasic(t *testing.T) {
	bt := NewBTree()
	if _, ok := bt.Get(1); ok {
		t.Fatal("empty tree should miss")
	}
	if !bt.Set(1, 100) {
		t.Fatal("first set should insert")
	}
	if bt.Set(1, 200) {
		t.Fatal("second set should replace, not insert")
	}
	v, ok := bt.Get(1)
	if !ok || v != 200 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
	if bt.Len() != 1 {
		t.Fatalf("Len = %d", bt.Len())
	}
}

func TestBTreeManyInsertsAscendSorted(t *testing.T) {
	bt := NewBTree()
	rng := rand.New(rand.NewSource(1))
	ref := make(map[uint64]uint64)
	for i := 0; i < 5000; i++ {
		k := uint64(rng.Intn(20000))
		bt.Set(k, k*2)
		ref[k] = k * 2
	}
	if bt.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", bt.Len(), len(ref))
	}
	if err := bt.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	prev := uint64(0)
	first := true
	count := 0
	bt.Ascend(func(k, v uint64) bool {
		if !first && k <= prev {
			t.Fatalf("out of order: %d after %d", k, prev)
		}
		if ref[k] != v {
			t.Fatalf("value mismatch at %d: %d vs %d", k, v, ref[k])
		}
		prev, first = k, false
		count++
		return true
	})
	if count != len(ref) {
		t.Fatalf("Ascend visited %d, want %d", count, len(ref))
	}
}

func TestBTreeDelete(t *testing.T) {
	bt := NewBTree()
	for i := uint64(0); i < 1000; i++ {
		bt.Set(i, i)
	}
	rng := rand.New(rand.NewSource(2))
	alive := make(map[uint64]bool)
	for i := uint64(0); i < 1000; i++ {
		alive[i] = true
	}
	for i := 0; i < 600; i++ {
		k := uint64(rng.Intn(1000))
		want := alive[k]
		got := bt.Delete(k)
		if got != want {
			t.Fatalf("Delete(%d) = %v, want %v", k, got, want)
		}
		delete(alive, k)
		if err := bt.checkInvariants(); err != nil {
			t.Fatalf("after deleting %d: %v", k, err)
		}
	}
	if bt.Len() != len(alive) {
		t.Fatalf("Len = %d, want %d", bt.Len(), len(alive))
	}
	for k := range alive {
		if _, ok := bt.Get(k); !ok {
			t.Fatalf("live key %d missing", k)
		}
	}
}

func TestBTreeDeleteAll(t *testing.T) {
	bt := NewBTree()
	for i := uint64(0); i < 300; i++ {
		bt.Set(i, i)
	}
	for i := uint64(0); i < 300; i++ {
		if !bt.Delete(i) {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	if bt.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", bt.Len())
	}
	if err := bt.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeAscendEarlyStop(t *testing.T) {
	bt := NewBTree()
	for i := uint64(0); i < 100; i++ {
		bt.Set(i, i)
	}
	count := 0
	bt.Ascend(func(_, _ uint64) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Fatalf("early stop visited %d", count)
	}
}

// TestBTreeMatchesMapProperty is a property test: after an arbitrary
// sequence of sets and deletes, the tree agrees with a reference map and
// keeps its invariants.
func TestBTreeMatchesMapProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		bt := NewBTree()
		ref := make(map[uint64]uint64)
		for i, op := range ops {
			k := uint64(op % 512)
			if op%3 == 0 {
				bt.Delete(k)
				delete(ref, k)
			} else {
				bt.Set(k, uint64(i))
				ref[k] = uint64(i)
			}
		}
		if bt.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := bt.Get(k)
			if !ok || got != v {
				return false
			}
		}
		return bt.checkInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// depth returns the tree height.
func (t *BTree) depth() int {
	d := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		d++
	}
	return d
}

// checkInvariants validates the B-tree structural invariants.
func (t *BTree) checkInvariants() error {
	return t.root.check(true, 0, ^uint64(0), t.depth(), 1)
}

func (n *btreeNode) check(isRoot bool, lo, hi uint64, depth, level int) error {
	if !isRoot && len(n.keys) < btreeDegree-1 {
		return errUnderfull
	}
	if len(n.keys) > 2*btreeDegree-1 {
		return errOverfull
	}
	for i := range n.keys {
		if n.keys[i] < lo || n.keys[i] > hi {
			return errOutOfOrder
		}
		if i > 0 && n.keys[i-1] >= n.keys[i] {
			return errOutOfOrder
		}
	}
	if n.leaf {
		if level != depth {
			return errUnevenLeaves
		}
		return nil
	}
	if len(n.children) != len(n.keys)+1 {
		return errChildCount
	}
	for i, c := range n.children {
		clo, chi := lo, hi
		if i > 0 {
			clo = n.keys[i-1] + 1
		}
		if i < len(n.keys) {
			chi = n.keys[i] - 1
		}
		if err := c.check(false, clo, chi, depth, level+1); err != nil {
			return err
		}
	}
	return nil
}

type btreeError string

func (e btreeError) Error() string { return string(e) }

const (
	errUnderfull    = btreeError("db: btree node underfull")
	errOverfull     = btreeError("db: btree node overfull")
	errOutOfOrder   = btreeError("db: btree keys out of order")
	errUnevenLeaves = btreeError("db: btree leaves at different depths")
	errChildCount   = btreeError("db: btree child count mismatch")
)
