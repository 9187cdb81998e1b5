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
// pruning), and swaps the two arenas. The root index follows the copy: the
// old roots' entries are cleared first (the copy relinks old nodes it
// merges), and the new roots' entries are set after it.
func (t *Tree) relayout(remain []int, minSupport int32) {
	for r := t.children; r != nil; r = r.sibling {
		t.top[r.item] = nil
	}
	t.spare.reset()
	t.children = t.copyList(t.children, remain, minSupport)
	t.indexRoots()
	t.arena, t.spare = t.spare, t.arena
	t.laid = t.arena.live
}

// indexRoots points the root index at every node of the root list.
func (t *Tree) indexRoots() {
	for r := t.children; r != nil; r = r.sibling {
		t.top[r.item] = r
	}
}
