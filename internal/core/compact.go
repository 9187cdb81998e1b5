package core

// Compact lays the tree out in preorder (the exact order isect traverses
// it: node, then its children, then its sibling) by copying it into the
// spare arena, which then becomes the tree's arena; the one it leaves is
// recycled by the next pass. Only the memory layout changes: intersection
// passes stream over millions of nodes, and traversal order turns most
// link dereferences into sequential memory access. Prune leaves the same
// layout, so Compact returns at once when no node has been allocated
// since the last Prune or Compact.
func (t *Tree) Compact() {
	if t.arena.live != t.laid {
		t.relayout(nil, 0)
	}
}

// relayout is the one maintenance pass behind Prune and Compact: it copies
// the tree into the spare arena in preorder, pruning at minSupport (0: no
// pruning), and swaps the two arenas. It walks the root list itself and
// has copyList copy each kept root's subtree. The root index follows the
// walk: a root the pass drops loses its entry, a kept root's entry moves
// to its copy.
//
// The signatures go to the spare table, which is swapped in with the
// spare arena. Pruning only removes nodes from a subtree, so a root that
// was a root before the pass keeps its signature. A root the pass lifts
// out of a pruned root (the old index does not point at it) holds nodes
// of that root's subtree, possibly merged with the old root of its item,
// so it gets all classes. The pass decides sparse afresh from the
// transactions' mean class count and, while it is set, gives the depth-1
// copies exact signatures from a walk of each fresh copy, which is laid
// out in preorder.
func (t *Tree) relayout(remain []int, minSupport int32) {
	t.spare.reset()
	t.spareSigs.reset()
	t.sparse = t.sparseRows()
	var head *node
	tail := &head
	for n := t.children; n != nil; {
		if minSupport > 0 && n.supp+int32(remain[n.item]) < minSupport {
			t.top[n.item] = nil
			n = merge(n.children, n.sibling)
			continue
		}
		c := t.spare.alloc()
		c.item, c.step, c.supp = n.item, n.step, n.supp
		c.sig = t.spareSigs.add()
		if s := t.spareSigs.at(c.sig); t.top[n.item] == n {
			*s = *t.sigs.at(n.sig)
		} else {
			*s = allClasses
		}
		t.top[n.item] = c
		*tail = c
		tail = &c.sibling
		c.children = t.copyList(n.children, remain, minSupport)
		if t.sparse {
			signList(&t.spareSigs, c.children)
		}
		n = n.sibling
	}
	t.children = head
	t.arena, t.spare = t.spare, t.arena
	t.sigs, t.spareSigs = t.spareSigs, t.sigs
	t.laid = t.arena.live
}

// sparseRows reports whether the transactions so far have at most
// sigClasses/16 classes on average, the rule for depth-1 signatures.
func (t *Tree) sparseRows() bool { return t.classes <= t.rows*(sigClasses/16) }

// indexRoots points the root index at every node of the root list.
func (t *Tree) indexRoots() {
	for r := t.children; r != nil; r = r.sibling {
		t.top[r.item] = r
	}
}
