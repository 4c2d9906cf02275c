package core

import (
	"sync/atomic"

	"specbtree/internal/optlock"
)

// node is a single B-tree node. This is a classic B-tree (not a B+ tree):
// inner nodes carry real elements as separators, exactly as in the paper's
// Algorithm 1, whose descent may find the probe value in an inner node.
//
// Concurrency contract (paper §3.1, "the following rules are obeyed"):
//   - the keys and the child pointers of a node are protected by the
//     node's own lock;
//   - the parent pointer (and the node's position within the parent) are
//     protected by the *parent's* lock — or by the tree's root lock for
//     the root node;
//   - nodes are never deleted or relocated, so a pointer read under a
//     lease that later fails to validate is stale but never dangling.
//
// Every mutable word is accessed through sync/atomic: the optimistic
// protocol deliberately lets readers race with writers and validate
// afterwards, and atomic access is what makes that defined behaviour under
// the Go memory model (the Go analogue of the Boehm seqlock treatment the
// paper adopts for C++).
type node struct {
	lock optlock.Lock

	// inner discriminates inner nodes from leaves. A node never changes
	// kind after construction, so the flag is read without synchronisation.
	inner bool

	// epoch is the tree epoch the node was created in (Tree.epoch at
	// construction time). Immutable after construction and published with
	// the node through an atomic pointer store, so — like inner — it is
	// read without further synchronisation. A node whose epoch is behind
	// the tree's current epoch is *frozen*: it belongs to a published
	// snapshot and must never be mutated again; writers copy-on-write it
	// first (Tree.cow).
	epoch uint64

	// retired marks a frozen node that has been replaced by its
	// current-epoch clone. A retired node keeps its content forever (a
	// snapshot may still be reading it) but is no longer part of the live
	// tree: hinted fast paths must treat it as a miss, and writers that
	// reach it must restart their descent. Set under the node's write
	// lock; read without one (an atomic flag, so late observers see it).
	retired atomic.Bool

	// parent and pos locate this node within its parent. Covered by the
	// parent's lock (root lock for the root).
	parent atomic.Pointer[node]
	pos    atomic.Int32

	// count is the number of elements currently stored.
	count atomic.Int32

	// keys is the flat element area: capacity*arity words; element i
	// occupies keys[i*arity : (i+1)*arity].
	keys []atomic.Uint64

	// children holds count+1 child pointers for inner nodes, the slots
	// past them nil; nil for leaves.
	children []atomic.Pointer[node]
}

// row returns element i's word slice. The returned words must still be
// loaded atomically by the caller.
func (n *node) row(i int, arity int) []atomic.Uint64 {
	return n.keys[i*arity : (i+1)*arity]
}

// loadRow copies element i into dst under atomic loads.
func (n *node) loadRow(i int, arity int, dst []uint64) {
	base := i * arity
	for w := 0; w < arity; w++ {
		dst[w] = n.keys[base+w].Load()
	}
}

// storeRow writes src into element slot i under atomic stores. Caller must
// hold the node's write lock (or the node must be unreachable).
func (n *node) storeRow(i int, arity int, src []uint64) {
	base := i * arity
	for w := 0; w < arity; w++ {
		n.keys[base+w].Store(src[w])
	}
}

// copyRow copies element slot from into element slot to within the node.
func (n *node) copyRow(to, from int, arity int) {
	tb, fb := to*arity, from*arity
	for w := 0; w < arity; w++ {
		n.keys[tb+w].Store(n.keys[fb+w].Load())
	}
}

// cmpRow three-way-compares element i against v, using atomic loads.
// The result is only meaningful if the enclosing lease validates.
func (n *node) cmpRow(i int, arity int, v []uint64) int {
	base := i * arity
	for w := 0; w < arity; w++ {
		kv := n.keys[base+w].Load()
		switch {
		case kv < v[w]:
			return -1
		case kv > v[w]:
			return 1
		}
	}
	return 0
}

// search locates v within the node: it returns the index of the first
// element >= v and whether that element equals v. The count and the keys
// are read atomically, so a torn concurrent state yields a bogus — but
// bounded — result that the caller's lease validation discards.
//
// Small nodes are scanned linearly with the 3-way comparator (the paper's
// tuning note); large nodes fall back to binary search.
func (n *node) search(arity int, v []uint64) (idx int, found bool) {
	cnt := int(n.count.Load())
	if cnt < 0 {
		cnt = 0
	}
	max := len(n.keys) / arity
	if cnt > max {
		cnt = max
	}
	if cnt <= linearSearchThreshold {
		for i := 0; i < cnt; i++ {
			c := n.cmpRow(i, arity, v)
			if c >= 0 {
				return i, c == 0
			}
		}
		return cnt, false
	}
	lo, hi := 0, cnt
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c := n.cmpRow(mid, arity, v)
		switch {
		case c < 0:
			lo = mid + 1
		case c > 0:
			hi = mid
		default:
			return mid, true
		}
	}
	return lo, false
}

// linearSearchThreshold is the node size up to which linear scanning beats
// binary search (short, branch-predictable loops over hot cache lines).
const linearSearchThreshold = 32

// child loads child pointer i, clamped so that a torn count can never
// produce an out-of-range access; an in-range but wrong child is caught by
// lease validation.
func (n *node) child(i int) *node {
	if i < 0 {
		i = 0
	}
	if i >= len(n.children) {
		i = len(n.children) - 1
	}
	return n.children[i].Load()
}

// full reports whether the node has no free element slot.
func (n *node) full(arity int) bool {
	return int(n.count.Load()) >= len(n.keys)/arity
}

// insertAt shifts elements (and, for inner nodes, the child pointers to
// the right of the separator) one slot right and writes v at index idx.
// Caller must hold the node's write lock or own the node exclusively.
func (n *node) insertAt(idx int, arity int, v []uint64, rightChild *node) {
	cnt := int(n.count.Load())
	for i := cnt; i > idx; i-- {
		n.copyRow(i, i-1, arity)
	}
	n.storeRow(idx, arity, v)
	if n.inner {
		for i := cnt + 1; i > idx+1; i-- {
			c := n.children[i-1].Load()
			n.children[i].Store(c)
			c.pos.Store(int32(i))
		}
		n.children[idx+1].Store(rightChild)
		rightChild.pos.Store(int32(idx + 1))
		rightChild.parent.Store(n)
	}
	n.count.Store(int32(cnt + 1))
}
