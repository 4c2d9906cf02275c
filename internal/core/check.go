package core

import (
	"fmt"

	"specbtree/internal/tuple"
)

// Check validates the structural invariants of the tree and returns the
// first violation found, or nil. It is intended for tests and must only
// run while no writer is active (read phase):
//
//   - element counts are within [1, capacity] (root may be empty only in
//     an empty tree);
//   - elements within each node are strictly increasing;
//   - all elements of child i lie strictly between the separators i-1 and
//     i of the parent;
//   - parent pointers and positions are consistent;
//   - an inner node's child slots past count are nil (a stale one would
//     pin history once the node is retired into a snapshot);
//   - all leaves are at the same depth;
//   - no lock is left write-locked.
func (t *Tree) Check() error {
	root := t.root.Load()
	if root == nil {
		return nil
	}
	if t.rootLock.IsWriteLocked() {
		return fmt.Errorf("core: root lock left write-locked")
	}
	if root.parent.Load() != nil {
		return fmt.Errorf("core: root has a parent")
	}
	if root.count.Load() == 0 {
		if root.inner {
			return fmt.Errorf("core: empty inner root")
		}
		return nil
	}
	depth := -1
	return t.checkNode(root, nil, nil, 0, &depth)
}

func (t *Tree) checkNode(n *node, lo, hi tuple.Tuple, level int, leafDepth *int) error {
	cnt := int(n.count.Load())
	if cnt < 1 || cnt > t.capacity {
		return fmt.Errorf("core: node at level %d has count %d (capacity %d)", level, cnt, t.capacity)
	}
	if n.lock.IsWriteLocked() {
		return fmt.Errorf("core: node at level %d left write-locked", level)
	}

	prev := make(tuple.Tuple, t.arity)
	cur := make(tuple.Tuple, t.arity)
	for i := 0; i < cnt; i++ {
		n.loadRow(i, t.arity, cur)
		if i > 0 && tuple.Compare(prev, cur) >= 0 {
			return fmt.Errorf("core: node at level %d not strictly increasing at index %d: %v >= %v", level, i, prev, cur)
		}
		if lo != nil && tuple.Compare(cur, lo) <= 0 {
			return fmt.Errorf("core: element %v at level %d violates lower separator %v", cur, level, lo)
		}
		if hi != nil && tuple.Compare(cur, hi) >= 0 {
			return fmt.Errorf("core: element %v at level %d violates upper separator %v", cur, level, hi)
		}
		prev, cur = cur, prev
	}

	if !n.inner {
		if *leafDepth == -1 {
			*leafDepth = level
		} else if *leafDepth != level {
			return fmt.Errorf("core: leaf at depth %d, expected %d", level, *leafDepth)
		}
		return nil
	}

	for i := cnt + 1; i < len(n.children); i++ {
		if n.children[i].Load() != nil {
			return fmt.Errorf("core: stale child slot %d past count %d at level %d", i, cnt, level)
		}
	}
	for i := 0; i <= cnt; i++ {
		child := n.children[i].Load()
		if child == nil {
			return fmt.Errorf("core: nil child %d at level %d", i, level)
		}
		if child.parent.Load() != n {
			return fmt.Errorf("core: child %d at level %d has wrong parent pointer", i, level)
		}
		if int(child.pos.Load()) != i {
			return fmt.Errorf("core: child %d at level %d has pos %d", i, level, child.pos.Load())
		}
		var clo, chi tuple.Tuple
		if i > 0 {
			clo = make(tuple.Tuple, t.arity)
			n.loadRow(i-1, t.arity, clo)
		} else {
			clo = lo
		}
		if i < cnt {
			chi = make(tuple.Tuple, t.arity)
			n.loadRow(i, t.arity, chi)
		} else {
			chi = hi
		}
		if err := t.checkNode(child, clo, chi, level+1, leafDepth); err != nil {
			return err
		}
	}
	return nil
}
