// Package core implements the paper's contribution: a concurrent
// in-memory B-tree specialised for parallel semi-naïve Datalog evaluation
// (Jordan, Subotić, Zhao, Scholz — PPoPP 2019).
//
// The tree stores fixed-arity tuples of uint64 words in lexicographic
// order. It supports insertion (no deletion — Datalog relations only
// grow), membership tests, lower/upper bound queries and ordered
// iteration. Insertions are synchronised by an optimistic fine-grained
// locking scheme built on the optimistic read-write lock of package
// optlock: descents take validation-only read leases top-down, mutations
// take exclusive write locks bottom-up (Algorithms 1 and 2 of the paper).
// The four hot operations accept operation hints (package-level type
// Hints) that cache the last leaf accessed per operation class and skip
// the descent entirely when the cached leaf still covers the probe.
package core

import (
	"fmt"
	"sync/atomic"

	"specbtree/internal/obs"
	"specbtree/internal/tuple"
)

// DefaultCapacity is the default number of elements per node. For binary
// tuples this makes a node's key area 256 bytes — a few cache lines, the
// sweet spot the paper's "highly tuned" implementation targets: wide
// enough to amortise descent cost and absorb writes lazily, small enough
// to keep scans and shifts cheap.
const DefaultCapacity = 16

// Options configures a Tree.
type Options struct {
	// Capacity is the number of elements per node (minimum 3). Zero means
	// DefaultCapacity.
	Capacity int
}

// Tree is the concurrent optimistic B-tree. All methods are safe for
// concurrent use, with the phase discipline of Datalog evaluation in mind:
// Insert may run concurrently with Insert/Contains/bounds; full iteration
// (Begin/Cursor.Next) is intended for the read phase, where no writers are
// active.
type Tree struct {
	arity    int
	capacity int

	// rootLock protects the root pointer and the (nil) parent pointer of
	// the root node, per the paper's locking rules.
	rootLock rootLockT
	root     atomic.Pointer[node]

	// epoch is the tree's current snapshot epoch. Snapshot advances it;
	// nodes stamped with an older epoch are frozen (immutable, owned by
	// the published snapshots) and are copied on first write (cow).
	epoch atomic.Uint64
}

// rootLockT aliases the optimistic lock so Tree's field list reads like
// the paper's (tree->root_lock).
type rootLockT = lockT

// New creates an empty tree for tuples with the given number of columns.
func New(arity int, opts ...Options) *Tree {
	if arity <= 0 {
		panic(fmt.Sprintf("core: invalid arity %d", arity))
	}
	capacity := DefaultCapacity
	if len(opts) > 0 && opts[0].Capacity != 0 {
		capacity = opts[0].Capacity
	}
	if capacity < 3 {
		panic(fmt.Sprintf("core: node capacity %d too small (minimum 3)", capacity))
	}
	return &Tree{arity: arity, capacity: capacity}
}

// Arity returns the number of columns of the stored tuples.
func (t *Tree) Arity() int { return t.arity }

// Capacity returns the per-node element capacity.
func (t *Tree) Capacity() int { return t.capacity }

// Empty reports whether the tree contains no elements.
func (t *Tree) Empty() bool {
	r := t.root.Load()
	return r == nil || r.count.Load() == 0
}

// Len counts the elements by walking the tree. It is intended for the
// read phase; the tree deliberately maintains no shared size counter,
// which would serialise concurrent inserts on one cache line.
func (t *Tree) Len() int {
	return countSubtree(t.root.Load())
}

// countSubtree counts the elements of the subtree rooted at n (shared by
// Tree.Len and Snapshot.Len).
func countSubtree(n *node) int {
	if n == nil {
		return 0
	}
	total := int(n.count.Load())
	if n.inner {
		for i := 0; i <= int(n.count.Load()); i++ {
			total += countSubtree(n.children[i].Load())
		}
	}
	return total
}

func (t *Tree) newNode(inner bool) *node {
	n := &node{
		inner: inner,
		epoch: t.epoch.Load(),
		keys:  make([]atomic.Uint64, t.capacity*t.arity),
	}
	if inner {
		n.children = make([]atomic.Pointer[node], t.capacity+1)
	}
	return n
}

// frozen reports whether n predates the tree's current epoch and
// therefore belongs to a published snapshot. Frozen nodes are immutable;
// a writer reaching one must clone its path first (cow).
func (t *Tree) frozen(n *node) bool {
	return n.epoch < t.epoch.Load()
}

// valid counts and performs one lease validation: one
// optlock.read.validations event per call, plus a
// optlock.read.validation_failures event when the lease is stale. All
// validations of the tree's hot paths funnel through here so the lock
// protocol stays observable without touching package optlock's fast path.
func valid(l *lockT, ls lease, oc *obs.OpCounts) bool {
	oc.Inc(obs.LockReadValidations)
	if l.Valid(ls) {
		return true
	}
	oc.Inc(obs.LockReadValidationFailures)
	return false
}

// Insert adds v to the set, returning false if it was already present.
// It is the hint-less form of InsertHint.
func (t *Tree) Insert(v tuple.Tuple) bool { return t.InsertHint(v, nil) }

// InsertHint adds v to the set, consulting and updating the caller's
// operation hints. The hint may be nil. v must have the tree's arity.
//
// The implementation follows the paper's Algorithm 1: descend under
// optimistic read leases, validate every lease before trusting what was
// read under it, upgrade the leaf lease to a write lock, and restart from
// the top on any conflict. Split handling (full leaf) is Algorithm 2.
// One in obs.SamplePeriod operations is timed into "hist.op.insert.ns".
func (t *Tree) InsertHint(v tuple.Tuple, h *Hints) bool {
	if h != nil {
		oc := h.obs.Counts()
		var start int64
		if h.obs.SampleOp() {
			start = obs.Clock()
		}
		ok := t.insertHint(v, h, oc)
		if start != 0 {
			oc.Observe(obs.HistInsertNanos, uint64(obs.Clock()-start))
		}
		h.obs.EndOp()
		return ok
	}
	var oc obs.OpCounts
	start := obs.SampleClock()
	ok := t.insertHint(v, nil, &oc)
	if start != 0 {
		oc.Observe(obs.HistInsertNanos, uint64(obs.Clock()-start))
	}
	oc.Flush()
	return ok
}

func (t *Tree) insertHint(v tuple.Tuple, h *Hints, oc *obs.OpCounts) bool {
	if len(v) != t.arity {
		panic(fmt.Sprintf("core: inserting arity-%d tuple into arity-%d tree", len(v), t.arity))
	}

	// Safely initialise the root node pointer (Alg. 1 lines 2-9).
	for t.root.Load() == nil {
		if !t.rootLock.TryStartWrite() {
			continue
		}
		if t.root.Load() == nil {
			t.root.Store(t.newNode(false))
		}
		t.rootLock.EndWrite()
	}

	// Try the insert hint: if the remembered leaf still covers v, enter
	// the tree directly at that leaf, skipping the descent. Correctness of
	// leaf-first entry rests on write locks being acquired bottom-up. A
	// cold hint (no remembered leaf yet) counts as a miss, so hits plus
	// misses always equals the number of hinted operations.
	if h != nil {
		if leaf := h.insertLeaf; leaf != nil {
			lease := leaf.lock.StartRead()
			idx, found, covered := t.probeLeaf(leaf, v)
			if valid(&leaf.lock, lease, oc) && covered {
				h.Stats.InsertHits++
				oc.Inc(obs.HintInsertHits)
				if found {
					if valid(&leaf.lock, lease, oc) {
						return false
					}
					// Torn read; fall through to the full descent.
				} else if done, inserted := t.insertIntoLeaf(leaf, lease, idx, v, h, oc); done {
					return inserted
				}
				// Upgrade or split lost a race: restart via full descent.
			} else {
				h.Stats.InsertMisses++
				oc.Inc(obs.HintInsertMisses)
			}
		} else {
			h.Stats.InsertMisses++
			oc.Inc(obs.HintInsertMisses)
		}
	}

restart:
	for attempt := 0; ; attempt++ {
		oc.Inc(obs.TreeDescents)
		if attempt > 0 {
			oc.Inc(obs.TreeRestarts)
		}
		// Safely obtain the root node and a lease on it (lines 13-17).
		var cur *node
		var curLease lease
		for {
			rootLease := t.rootLock.StartRead()
			cur = t.root.Load()
			if cur == nil {
				continue
			}
			curLease = cur.lock.StartRead()
			if valid(&t.rootLock, rootLease, oc) {
				break
			}
		}

		// Descend into the tree (lines 20-33).
		for {
			idx, found := cur.search(t.arity, v)
			if found {
				if valid(&cur.lock, curLease, oc) {
					oc.Observe(obs.HistRestartsPerOp, uint64(attempt))
					return false
				}
				continue restart
			}

			if cur.inner {
				next := cur.child(idx)
				if !valid(&cur.lock, curLease, oc) {
					continue restart
				}
				nextLease := next.lock.StartRead()
				if !valid(&cur.lock, curLease, oc) {
					continue restart
				}
				cur, curLease = next, nextLease
				continue
			}

			done, inserted := t.insertIntoLeaf(cur, curLease, idx, v, h, oc)
			if !done {
				continue restart
			}
			oc.Observe(obs.HistRestartsPerOp, uint64(attempt))
			return inserted
		}
	}
}

// insertIntoLeaf performs Alg. 1 lines 35-48: upgrade the leaf's read
// lease to a write lock, split if full, otherwise insert. done=false
// requests a restart of the whole insertion.
func (t *Tree) insertIntoLeaf(leaf *node, ls lease, idx int, v tuple.Tuple, h *Hints, oc *obs.OpCounts) (done, inserted bool) {
	if !leaf.lock.TryUpgradeToWrite(ls) {
		oc.Inc(obs.LockUpgradeFailures)
		// A lost upgrade CAS is instantaneous contention: one failed
		// attempt, no wait.
		obs.RecordContention(obs.SiteLeafUpgrade, 0, 1, 0)
		return false, false
	}
	oc.Inc(obs.LockUpgradeSuccesses)
	if leaf.retired.Load() {
		// The leaf was cloned out of the live tree between our lease and
		// the upgrade (a concurrent cow EndWrite left the lock free to
		// acquire). Nothing was modified, so AbortWrite keeps outstanding
		// leases valid; the restarted descent finds the clone.
		leaf.lock.AbortWrite()
		return false, false
	}
	if t.frozen(leaf) {
		// First write of the epoch to reach this leaf: replace the frozen
		// path with current-epoch clones, then restart the descent into
		// the clone. EndWrite (not Abort) — cow retired the leaf, and the
		// version bump invalidates every lease still pointing at it.
		t.cow(leaf, oc)
		leaf.lock.EndWrite()
		return false, false
	}
	if leaf.full(t.arity) {
		t.split(leaf, oc)
		leaf.lock.EndWrite()
		return false, false
	}
	leaf.insertAt(idx, t.arity, v, nil)
	leaf.lock.EndWrite()
	if h != nil {
		h.insertLeaf = leaf
	}
	return true, true
}

// probeLeaf checks whether leaf (a presumed leaf node) covers v — i.e.
// leaf.first <= v <= leaf.last, so v's position in the tree order falls
// inside this very node — and locates v's slot. All reads are atomic and
// must be validated by the caller's lease.
func (t *Tree) probeLeaf(leaf *node, v tuple.Tuple) (idx int, found, covered bool) {
	if leaf.inner || leaf.retired.Load() {
		// A retired leaf's content is frozen at its retirement: its live
		// clone may hold newer inserts, so answering from it would lose
		// them. Treat stale hints into retired nodes as plain misses.
		return 0, false, false
	}
	cnt := int(leaf.count.Load())
	if cnt <= 0 || cnt > t.capacity {
		return 0, false, false
	}
	if leaf.cmpRow(0, t.arity, v) > 0 || leaf.cmpRow(cnt-1, t.arity, v) < 0 {
		return 0, false, false
	}
	idx, found = leaf.search(t.arity, v)
	return idx, found, true
}

// split implements the paper's Algorithm 2. The caller holds the write
// lock on n (which is full). Write locks on the ancestor path are taken
// bottom-up until the first non-full ancestor or the root lock, the split
// is performed, and the path is unlocked top-down. The caller keeps — and
// must release — its own lock on n.
func (t *Tree) split(n *node, oc *obs.OpCounts) {
	// Write-lock the path bottom-up (lines 2-23). path records the locked
	// ancestors; a nil entry denotes the tree's root lock. level tracks
	// how far above the leaf the currently acquired lock sits (the leaf
	// being split is level 0), labelling contention events for the
	// flight recorder — ancestor locks near the root are the contention
	// hot spots the paper's scaling discussion predicts.
	cur := n
	parent := cur.parent.Load()
	var path []*node
	for level := int32(1); ; level++ {
		if parent != nil {
			// The parent pointer of cur is covered by the parent's own
			// lock; re-read until it is stable under that lock (lines 8-13).
			for {
				if spins, wait := parent.lock.StartWriteTimed(); spins > 0 {
					obs.RecordContention(obs.SiteSplitParent, level, spins, wait)
				}
				if parent == cur.parent.Load() {
					break
				}
				parent.lock.AbortWrite()
				parent = cur.parent.Load()
			}
		} else {
			// cur believes it is the root; its (nil) parent pointer is
			// covered by the root lock. Re-check under that lock: a
			// concurrent split may have given cur a parent meanwhile.
			if spins, wait := t.rootLock.StartWriteTimed(); spins > 0 {
				obs.RecordContention(obs.SiteSplitRoot, level, spins, wait)
			}
			if p := cur.parent.Load(); p != nil {
				t.rootLock.AbortWrite()
				parent = p
				level--
				continue
			}
		}
		path = append(path, parent)

		// Stop at the root or at a non-full inner node (line 20).
		if parent == nil || !parent.full(t.arity) {
			break
		}
		cur = parent
		parent = cur.parent.Load()
	}

	// Conduct the actual split (line 26). siblings collects the fresh
	// inner siblings doSplit created write-locked, topmost first.
	var siblings []*node
	t.doSplit(n, oc, &siblings)

	// Unlock the path top-down (lines 28-35), then the inner siblings:
	// every mutation is done, so the release order among them is free.
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] != nil {
			path[i].lock.EndWrite()
		} else {
			t.rootLock.EndWrite()
		}
	}
	for _, s := range siblings {
		s.lock.EndWrite()
	}
}

// doSplit splits the full node n, propagating splits up the (already
// locked) ancestor path as needed. n and every full ancestor are write
// locked; the first non-full ancestor (or the root lock) is locked too.
// Fresh inner siblings are created write-locked and appended to locked;
// the caller releases them once the whole split is done.
func (t *Tree) doSplit(n *node, oc *obs.OpCounts, locked *[]*node) {
	parent := n.parent.Load()
	if parent != nil && parent.full(t.arity) {
		// Make room above first. Splitting the parent may migrate n into
		// the parent's new sibling, so re-read n's parent afterwards.
		t.doSplit(parent, oc, locked)
		parent = n.parent.Load()
	}
	if n.inner {
		oc.Inc(obs.TreeInnerSplits)
	} else {
		oc.Inc(obs.TreeLeafSplits)
	}

	arity := t.arity
	cnt := int(n.count.Load())
	mid := cnt / 2

	// Half of the elements stay, the median moves up, the rest move to a
	// fresh right sibling. A leaf sibling is unreachable until the locked
	// parent exposes it, so it needs no locking. An inner sibling is
	// reachable the moment a moved child's parent pointer names it — a
	// second writer holding that child's write lock would lock the
	// sibling bottom-up and insert into it while this split (or the one
	// of the level below, which may insert into the sibling too) is still
	// mutating it. Algorithm 2's rule is that a node reachable through a
	// parent pointer is write-locked by whoever still mutates it, so the
	// inner sibling is born locked and split releases it at the end.
	median := make([]uint64, arity)
	n.loadRow(mid, arity, median)

	sibling := t.newNode(n.inner)
	if n.inner {
		sibling.lock.StartWrite()
		*locked = append(*locked, sibling)
	}
	moved := cnt - mid - 1
	buf := make([]uint64, arity)
	for i := 0; i < moved; i++ {
		n.loadRow(mid+1+i, arity, buf)
		sibling.storeRow(i, arity, buf)
	}
	if n.inner {
		for i := 0; i <= moved; i++ {
			c := n.children[mid+1+i].Load()
			sibling.children[i].Store(c)
			// The children's parent pointers are covered by n's lock —
			// which we hold — while they still belong to n.
			c.parent.Store(sibling)
			c.pos.Store(int32(i))
		}
	}
	sibling.count.Store(int32(moved))
	n.count.Store(int32(mid))
	if n.inner {
		// Clear the moved child slots: a stale pointer past count would pin
		// the moved subtree's history once cow retires n into a snapshot.
		for i := mid + 1; i <= cnt; i++ {
			n.children[i].Store(nil)
		}
	}

	if parent == nil {
		// n was the root: grow the tree by one level. The root lock is
		// held, covering both the root pointer and the parents of n and
		// the sibling. Each root split is exactly one height increase, so
		// core.split.root doubles as the height-change counter.
		oc.Inc(obs.TreeRootSplits)
		newRoot := t.newNode(true)
		newRoot.storeRow(0, arity, median)
		newRoot.children[0].Store(n)
		newRoot.children[1].Store(sibling)
		newRoot.count.Store(1)
		n.parent.Store(newRoot)
		n.pos.Store(0)
		sibling.parent.Store(newRoot)
		sibling.pos.Store(1)
		t.root.Store(newRoot)
		return
	}

	// Insert the median and the new sibling into the (locked, non-full)
	// parent, right of n's own slot.
	parent.insertAt(int(n.pos.Load()), arity, median, sibling)
}

// cow replaces the frozen path from leaf up to the first non-frozen
// ancestor with current-epoch clones, retiring the originals. The caller
// holds leaf's write lock (and releases it with EndWrite afterwards);
// cow write-locks the frozen ancestor chain bottom-up exactly like
// split, so the two upward lock protocols compose without deadlock.
//
// The chain of frozen ancestors is contiguous by the epoch invariant:
// a live non-frozen node's parent is non-frozen (clones are created
// under non-frozen parents, and epoch advances freeze the whole tree at
// once). The first non-frozen ancestor — or the root lock — is therefore
// the install point, and everything above it is current-epoch structure
// the published snapshots can no longer reach. Snapshots entered through
// the frozen old root keep reading the retired originals, whose content
// never changes again.
func (t *Tree) cow(leaf *node, oc *obs.OpCounts) {
	epoch := t.epoch.Load()

	// Write-lock the frozen ancestors bottom-up (the split protocol:
	// re-read the parent pointer until it is stable under the parent's
	// own lock, with the root lock covering a nil parent). chain collects
	// the frozen nodes to clone, bottom-up, leaf first; path collects
	// every acquired lock for the top-down release, nil denoting the
	// tree's root lock.
	chain := []*node{leaf}
	var path []*node
	var top *node // first non-frozen ancestor; nil when the root lock is the install point
	cur := leaf
	parent := cur.parent.Load()
	for level := int32(1); ; level++ {
		if parent != nil {
			for {
				if spins, wait := parent.lock.StartWriteTimed(); spins > 0 {
					obs.RecordContention(obs.SiteCowParent, level, spins, wait)
				}
				if parent == cur.parent.Load() {
					break
				}
				// A concurrent cow of the old parent repointed cur to the
				// parent's clone; chase the new pointer.
				parent.lock.AbortWrite()
				parent = cur.parent.Load()
			}
		} else {
			if spins, wait := t.rootLock.StartWriteTimed(); spins > 0 {
				obs.RecordContention(obs.SiteCowRoot, level, spins, wait)
			}
			if p := cur.parent.Load(); p != nil {
				t.rootLock.AbortWrite()
				parent = p
				level--
				continue
			}
		}
		path = append(path, parent)
		if parent == nil || parent.epoch >= epoch {
			top = parent
			break
		}
		chain = append(chain, parent)
		cur = parent
		parent = cur.parent.Load()
	}

	// Clone top-down. Cloning an inner node repoints all its children to
	// the clone (covered by the original's lock, which we hold); the
	// on-path child slot is then overwritten with the child's own clone.
	// The whole new path becomes reachable only through the locked
	// install point, so readers cannot observe it half-built.
	var parentClone *node
	var clones []*node // inner clones, write-locked until the path is built
	for i := len(chain) - 1; i >= 0; i-- {
		orig := chain[i]
		cl := t.cloneNode(orig)
		if cl.inner {
			clones = append(clones, cl)
		}
		oc.Inc(obs.TreeCowClones)
		orig.retired.Store(true)
		pos := int(orig.pos.Load())
		switch {
		case i == len(chain)-1 && top == nil:
			// orig was the root; the root lock (held) covers both the root
			// pointer and the clone's nil parent.
			t.root.Store(cl)
		case i == len(chain)-1:
			top.children[pos].Store(cl)
			cl.parent.Store(top)
			cl.pos.Store(int32(pos))
		default:
			parentClone.children[pos].Store(cl)
			cl.parent.Store(parentClone)
			cl.pos.Store(int32(pos))
		}
		parentClone = cl
	}

	// Unlock top-down. EndWrite throughout: every locked node was either
	// mutated (the install point's child slot) or retired, and the
	// version bump pushes lease holders off the old path. The inner
	// clones (born write-locked, see cloneNode) follow, topmost first.
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] != nil {
			path[i].lock.EndWrite()
		} else {
			t.rootLock.EndWrite()
		}
	}
	for _, cl := range clones {
		cl.lock.EndWrite()
	}
}

// cloneNode builds a current-epoch copy of n: same elements, same child
// pointers, same position. The children's parent pointers are repointed
// to the clone (covered by n's write lock, held by the caller). A leaf
// clone is unreachable until the caller installs it. An inner clone is
// reachable through its children's parent pointers while it is still
// being filled in (count is stored last) and while cow installs the
// on-path child below it, so — the sibling-lock rule of doSplit — it is
// returned write-locked and cow releases it: a second writer holding one
// of the children's write locks waits instead of treating the
// half-built clone as its install point.
func (t *Tree) cloneNode(n *node) *node {
	cl := t.newNode(n.inner)
	if n.inner {
		cl.lock.StartWrite()
	}
	cnt := int(n.count.Load())
	for w := 0; w < cnt*t.arity; w++ {
		cl.keys[w].Store(n.keys[w].Load())
	}
	if n.inner {
		for i := 0; i <= cnt; i++ {
			c := n.children[i].Load()
			cl.children[i].Store(c)
			c.parent.Store(cl)
		}
	}
	cl.count.Store(int32(cnt))
	cl.parent.Store(n.parent.Load())
	cl.pos.Store(n.pos.Load())
	return cl
}
