package core

// pruneMinNodes avoids pruning while the tree is trivially small.
const pruneMinNodes = 4096

// maintain is Intersect's tree maintenance after a transaction: a Prune
// pass once the tree holds at least pruneMinNodes nodes and has grown by
// an eighth since the last pass. The pass is linear in the tree size, so
// its amortized cost stays proportional to growth. remain is as for
// Prune.
func (t *Tree) maintain(remain []int, minSupport int) {
	if n := t.arena.live; n >= pruneMinNodes && n >= t.laid+t.laid/8 {
		t.Prune(remain, minSupport)
	}
}

// Prune implements the item-elimination scheme of §3.2: remain[i] must
// hold the number of occurrences of item i in the not-yet-processed
// transactions. A node is removed when supp + remain[item] < minSupport:
// every set represented in its subtree contains the node's item and has at
// most the node's support, so no such set — nor any future intersection
// that still contains the item, whose occurrences are bounded by
// remain[item] — can reach minSupport. The removal does not discard the
// subtree (whose sets may still generate frequent subsets through future
// intersections) but *removes the item*: the node's children are merged
// into its sibling list, combining nodes with equal items by taking the
// maximum support and merging their child lists recursively.
//
// Note that the bound must use the node's own item, not the minimum
// remaining count along the path: a future intersection may retain this
// item while dropping a scarce ancestor item, so a path-wide bound would
// prune sets that still have a future (this is easy to get wrong — the
// test suite contains a regression case).
//
// This may leave sets in the tree that are not closed; they are harmless
// because they either reappear as genuine intersections (and then carry
// the correct support) or stay below minSupport and are filtered by
// Report, exactly as argued in the paper.
//
// The pass is also the tree's compaction: it copies every kept node into
// the spare arena in preorder, so it leaves the layout Compact describes.
// At minSupport ≤ 1 nothing can be pruned and the pass only lays the tree
// out.
func (t *Tree) Prune(remain []int, minSupport int) {
	if minSupport <= 1 {
		minSupport = 0
	}
	t.relayout(remain, int32(minSupport))
}

// copyList copies one sibling list into the spare arena, node, then its
// children, then its siblings, and returns the copy's head. A node failing
// the prune bound is not copied; its children are merged into the
// unprocessed rest of the list instead. That keeps the list sorted: child
// items are smaller than the pruned item, which in turn is smaller than
// every item already copied, so the ordered merge with the tail suffices,
// and lifted nodes are inspected by the continued loop like any other
// sibling. minSupport 0 copies everything (remain is then not read).
//
// Like isect, it descends with an explicit stack: before copying a node's
// children it pushes the node's sibling with the copy's sibling link. A
// merge below the node relinks only lists below it, so the sibling pushed
// is the one the list still holds when the children are done.
func (t *Tree) copyList(n *node, remain []int, minSupport int32) *node {
	var head *node
	tail := &head
	stack := t.stack[:0]
	for {
		for n != nil {
			if minSupport > 0 && n.supp+int32(remain[n.item]) < minSupport {
				n = merge(n.children, n.sibling)
				continue
			}
			c := t.spare.alloc()
			c.item, c.step, c.supp = n.item, n.step, n.supp
			*tail = c
			if n.children != nil {
				if n.sibling != nil {
					stack = append(stack, frame{n.sibling, &c.sibling})
				}
				n, tail = n.children, &c.children
				continue
			}
			n, tail = n.sibling, &c.sibling
		}
		if len(stack) == 0 {
			break
		}
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n, tail = f.n, f.ins
	}
	t.stack = stack
	return head
}

// merge combines two sibling lists (both sorted by descending item code)
// into one, merging nodes with equal items: the surviving node takes the
// maximum support and the recursive merge of both child lists. It relinks
// nodes of the arena a pass is copying from, which the pass discards.
func merge(a, b *node) *node {
	var head *node
	tail := &head
	for a != nil && b != nil {
		switch {
		case a.item > b.item:
			*tail = a
			tail = &a.sibling
			a = a.sibling
		case a.item < b.item:
			*tail = b
			tail = &b.sibling
			b = b.sibling
		default:
			// Same item: keep a, fold b into it.
			if b.supp > a.supp {
				a.supp = b.supp
			}
			a.children = merge(a.children, b.children)
			*tail = a
			tail = &a.sibling
			a = a.sibling
			b = b.sibling
		}
	}
	if a != nil {
		*tail = a
	} else {
		*tail = b
	}
	return head
}
