// Package masstree is a simplified Masstree (Mao, Kohler, Morris —
// EuroSys 2012), one of the paper's §4.4 comparison structures. Masstree
// is a trie of B+ trees: each trie layer indexes an 8-byte key slice with
// a B+ tree whose nodes carry version counters for optimistic reads and
// per-node spinlocks for writes.
//
// Simplifications relative to the original (documented in DESIGN.md):
// the client/server persistence machinery is dropped (the paper itself
// notes Masstree "is not optimized for use in an in-memory Datalog
// engine"); keys are single uint64 values, which occupy exactly one trie
// layer, so the structure is one B+ tree; and writer synchronisation uses
// per-node mutexes with lock coupling instead of hand-crafted spinlocks.
// Reads are optimistic via node version counters, as in the original.
package masstree

import (
	"sync"
	"sync/atomic"
)

// fanout is the B+ tree node width (Masstree uses 15-key nodes).
const fanout = 15

// Tree is a concurrent ordered set of uint64 keys.
type Tree struct {
	mu   sync.Mutex // root replacement
	root atomic.Pointer[node]
	size atomic.Int64
}

type node struct {
	mu sync.Mutex
	// version is odd while a writer is mutating the node and bumped to
	// the next even value when it is done (Masstree's dirty bit). A
	// reader that sees an odd version retries; one that sees the same
	// even version before and after its loads read a consistent node.
	// Counting completed mutations alone is not enough: a reader that
	// starts and finishes inside one mutation would validate a torn read
	// — e.g. half-shifted separators of an inner node send an inserter to
	// a leaf right of its key, which then holds a key below its
	// separator.
	version atomic.Uint64
	leaf    bool

	nkeys    atomic.Int32
	keys     [fanout]atomic.Uint64
	children [fanout + 1]atomic.Pointer[node]
	next     atomic.Pointer[node] // leaf chain
}

// beginWrite marks n as being mutated; the caller holds n.mu.
func (n *node) beginWrite() { n.version.Add(1) }

// endWrite publishes the mutation beginWrite announced.
func (n *node) endWrite() { n.version.Add(1) }

// New creates an empty tree.
func New() *Tree {
	t := &Tree{}
	t.root.Store(&node{leaf: true})
	return t
}

// Len returns the number of keys.
func (t *Tree) Len() int { return int(t.size.Load()) }

// findLeaf descends optimistically to the leaf covering k, retrying if a
// node version changes mid-read (the Masstree read protocol).
func (t *Tree) findLeaf(k uint64) *node {
retry:
	for {
		n := t.root.Load()
		for !n.leaf {
			v1 := n.version.Load()
			cnt := int(n.nkeys.Load())
			if v1&1 != 0 || cnt > fanout {
				continue retry
			}
			idx := 0
			for idx < cnt && n.keys[idx].Load() <= k {
				idx++
			}
			child := n.children[idx].Load()
			if n.version.Load() != v1 || child == nil {
				continue retry
			}
			n = child
		}
		return n
	}
}

// Contains reports whether k is in the set.
func (t *Tree) Contains(k uint64) bool {
	for {
		leaf := t.findLeaf(k)
		v1 := leaf.version.Load()
		cnt := int(leaf.nkeys.Load())
		if v1&1 != 0 || cnt > fanout {
			continue
		}
		found := false
		for i := 0; i < cnt; i++ {
			if leaf.keys[i].Load() == k {
				found = true
				break
			}
		}
		if leaf.version.Load() == v1 {
			// The leaf may have split since the descent; if k now belongs
			// to the new right sibling, retry from the root.
			if !found && cnt > 0 && leaf.keys[cnt-1].Load() < k {
				if nxt := leaf.next.Load(); nxt != nil &&
					nxt.nkeys.Load() > 0 && nxt.keys[0].Load() <= k {
					continue
				}
			}
			return found
		}
	}
}

// Insert adds k, returning false if already present.
func (t *Tree) Insert(k uint64) bool {
	for {
		leaf := t.findLeaf(k)
		leaf.mu.Lock()
		// Validate the leaf still covers k: after a split, k may belong to
		// a successor leaf.
		cnt := int(leaf.nkeys.Load())
		if cnt > 0 && leaf.keys[cnt-1].Load() < k {
			if nxt := leaf.next.Load(); nxt != nil {
				// k might belong to the new sibling; retry from the top.
				first := nxt.keys[0].Load()
				if nxt.nkeys.Load() > 0 && first <= k {
					leaf.mu.Unlock()
					continue
				}
			}
		}
		idx := 0
		for idx < cnt && leaf.keys[idx].Load() < k {
			idx++
		}
		if idx < cnt && leaf.keys[idx].Load() == k {
			leaf.mu.Unlock()
			return false
		}
		if cnt < fanout {
			leaf.beginWrite()
			for i := cnt; i > idx; i-- {
				leaf.keys[i].Store(leaf.keys[i-1].Load())
			}
			leaf.keys[idx].Store(k)
			leaf.nkeys.Store(int32(cnt + 1))
			leaf.endWrite()
			leaf.mu.Unlock()
			t.size.Add(1)
			return true
		}
		// Full leaf: split under the global structural lock (simplified
		// from Masstree's hand-over-hand ancestor locking).
		leaf.mu.Unlock()
		t.mu.Lock()
		fresh := t.splitAndInsertLocked(k)
		t.mu.Unlock()
		return fresh
	}
}

// splitAndInsertLocked performs a pre-emptive split descent: any full node
// on the path (including the root) is split before entering it, so every
// parent receiving a separator has room. Caller holds t.mu; readers keep
// running optimistically, so all node mutations still bump versions under
// the node locks.
func (t *Tree) splitAndInsertLocked(k uint64) bool {
	root := t.root.Load()
	if int(root.nkeys.Load()) >= fanout {
		newRoot := &node{}
		newRoot.children[0].Store(root)
		sep, right := t.splitChild(root)
		newRoot.keys[0].Store(sep)
		newRoot.children[1].Store(right)
		newRoot.nkeys.Store(1)
		t.root.Store(newRoot)
	}
	n := t.root.Load()
	for !n.leaf {
		cnt := int(n.nkeys.Load())
		idx := 0
		for idx < cnt && n.keys[idx].Load() <= k {
			idx++
		}
		child := n.children[idx].Load()
		if int(child.nkeys.Load()) >= fanout {
			sep, right := t.splitChild(child)
			// Insert sep/right into n (which has room by construction).
			n.mu.Lock()
			n.beginWrite()
			cnt = int(n.nkeys.Load())
			idx = 0
			for idx < cnt && n.keys[idx].Load() <= sep {
				idx++
			}
			for j := cnt; j > idx; j-- {
				n.keys[j].Store(n.keys[j-1].Load())
			}
			for j := cnt + 1; j > idx+1; j-- {
				n.children[j].Store(n.children[j-1].Load())
			}
			n.keys[idx].Store(sep)
			n.children[idx+1].Store(right)
			n.nkeys.Store(int32(cnt + 1))
			n.endWrite()
			n.mu.Unlock()
			if k >= sep {
				child = right
			}
		}
		n = child
	}
	// The leaf has room for at least one key (it was split if full).
	leaf := n
	leaf.mu.Lock()
	cnt := int(leaf.nkeys.Load())
	if cnt >= fanout {
		// A racing fast-path insert refilled the leaf; start over.
		leaf.mu.Unlock()
		return t.splitAndInsertLocked(k)
	}
	idx := 0
	for idx < cnt && leaf.keys[idx].Load() < k {
		idx++
	}
	if idx < cnt && leaf.keys[idx].Load() == k {
		leaf.mu.Unlock()
		return false
	}
	leaf.beginWrite()
	for i := cnt; i > idx; i-- {
		leaf.keys[i].Store(leaf.keys[i-1].Load())
	}
	leaf.keys[idx].Store(k)
	leaf.nkeys.Store(int32(cnt + 1))
	leaf.endWrite()
	leaf.mu.Unlock()
	t.size.Add(1)
	return true
}

// splitChild splits the full node n, returning the separator and the new
// right sibling. Caller holds t.mu and links the sibling into the parent.
func (t *Tree) splitChild(n *node) (uint64, *node) {
	n.mu.Lock()
	n.beginWrite()
	cnt := int(n.nkeys.Load())
	mid := cnt / 2

	right := &node{leaf: n.leaf}
	var sep uint64
	if n.leaf {
		// B+ leaf split: the separator is copied, not moved.
		sep = n.keys[mid].Load()
		for j := mid; j < cnt; j++ {
			right.keys[j-mid].Store(n.keys[j].Load())
		}
		right.nkeys.Store(int32(cnt - mid))
		n.nkeys.Store(int32(mid))
		right.next.Store(n.next.Load())
		n.next.Store(right)
	} else {
		sep = n.keys[mid].Load()
		for j := mid + 1; j < cnt; j++ {
			right.keys[j-mid-1].Store(n.keys[j].Load())
		}
		for j := mid + 1; j <= cnt; j++ {
			right.children[j-mid-1].Store(n.children[j].Load())
		}
		right.nkeys.Store(int32(cnt - mid - 1))
		n.nkeys.Store(int32(mid))
	}
	n.endWrite()
	n.mu.Unlock()
	return sep, right
}

// Scan iterates over all keys in ascending order via the leaf chain.
// Intended for quiescent (read-phase) use.
func (t *Tree) Scan(yield func(uint64) bool) {
	n := t.root.Load()
	for !n.leaf {
		n = n.children[0].Load()
	}
	for n != nil {
		cnt := int(n.nkeys.Load())
		for i := 0; i < cnt; i++ {
			if !yield(n.keys[i].Load()) {
				return
			}
		}
		n = n.next.Load()
	}
}

// Check validates ordering via a full scan (quiescent use only).
func (t *Tree) Check() error {
	var prev uint64
	first := true
	count := 0
	bad := false
	t.Scan(func(k uint64) bool {
		if !first && k <= prev {
			bad = true
			return false
		}
		first = false
		prev = k
		count++
		return true
	})
	if bad {
		return errOutOfOrder
	}
	if count != t.Len() {
		return errSizeMismatch
	}
	return nil
}

type checkError string

func (e checkError) Error() string { return string(e) }

const (
	errOutOfOrder   = checkError("masstree: keys out of order")
	errSizeMismatch = checkError("masstree: size mismatch")
)
