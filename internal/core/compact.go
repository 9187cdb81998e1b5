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
// The signatures follow it too. Pruning only removes nodes from a
// subtree, so a root that was a root before the pass keeps its
// signature. A root the pass lifts out of a pruned root (the old index
// does not point at it) holds nodes of that root's subtree, possibly
// merged with the old root of its item, so it gets all classes.
func (t *Tree) relayout(remain []int, minSupport int32) {
	t.spare.reset()
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
		if t.top[n.item] != n {
			*(*classSet)(t.sig[sigWords*n.item:]) = allClasses
		}
		t.top[n.item] = c
		*tail = c
		tail = &c.sibling
		c.children = t.copyList(n.children, remain, minSupport)
		n = n.sibling
	}
	t.children = head
	t.arena, t.spare = t.spare, t.arena
	t.laid = t.arena.live
}

// indexRoots points the root index at every node of the root list.
func (t *Tree) indexRoots() {
	for r := t.children; r != nil; r = r.sibling {
		t.top[r.item] = r
	}
}
