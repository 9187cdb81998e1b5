// Package core implements IsTa, the paper's primary contribution
// (§3.2–3.4): mining closed frequent item sets by cumulative intersection.
// A prefix tree stores all closed item sets of the transactions processed
// so far; each new transaction is first inserted into the tree and then
// intersected with every stored set in one recursive pass that creates the
// new intersections in place (Fig. 2 of the paper). A final traversal
// reports the nodes that are frequent and closed (Fig. 4).
package core

import (
	"repro/internal/itemset"
)

// node is a prefix tree node, mirroring Fig. 1 of the paper. The item set
// represented by a node consists of the node's item plus the items on the
// path to the root. Children always carry items with lower codes than
// their parent, and sibling lists are sorted by descending item code.
//
// (An int32-index arena layout was tried and measured slower than plain
// pointers: the extra address arithmetic and bounds checks in the
// traversal hot loop cost more than the smaller nodes saved.)
type node struct {
	item     int32 // associated item (last in the represented set)
	step     int32 // most recent update step (transaction index + 1)
	supp     int32 // support of the represented item set
	sibling  *node // successor in the sibling list (descending items)
	children *node // head of the child list
}

// arena is a slab allocator for nodes. It exists for the same reason the C
// implementation manages its own node memory: IsTa allocates millions of
// small nodes, and bumping through slab blocks is far cheaper than
// exercising the general-purpose allocator for each one. Nodes are never
// freed one by one: a maintenance pass (Prune, Compact) copies the
// surviving nodes into the tree's spare arena, and the arena it leaves is
// reset and becomes the next spare, its blocks reused.
type arena struct {
	blocks [][]node
	cur    int // blocks in use; the last of them is being filled
	used   int // used entries in blocks[cur-1]
	live   int // nodes handed out since the last reset
}

const arenaBlock = 8192

// TestHookAlloc, when non-nil, is called with the arena's live node count
// after every node allocation. It is a fault-injection seam
// (internal/faultinject uses it to panic at node N, inside whatever
// goroutine grows the tree); it must only be set while no mining run is
// active.
var TestHookAlloc func(live int)

// alloc hands out a zeroed node.
func (a *arena) alloc() *node {
	a.live++
	if h := TestHookAlloc; h != nil {
		h(a.live)
	}
	if a.cur == 0 || a.used == arenaBlock {
		if a.cur == len(a.blocks) {
			a.blocks = append(a.blocks, make([]node, arenaBlock))
		}
		a.cur++
		a.used = 0
	}
	n := &a.blocks[a.cur-1][a.used]
	a.used++
	*n = node{}
	return n
}

// reset empties the arena, keeping its blocks for the next allocations.
func (a *arena) reset() { a.cur, a.used, a.live = 0, 0, 0 }

// Tree is the IsTa repository: a prefix tree over item codes together with
// the per-transaction scratch state of the intersection pass.
//
// top indexes the root's child list by item: top[i] is the root-level node
// of item i, or nil. Fig. 2 finds a root-level node by scanning the root
// list, which soon holds a node for most items, and every intersection
// whose leading items are absent from the transaction starts looking
// there; the index makes those lookups constant time. The linked list stays the tree's structure (every traversal uses
// it), and top is derived from it: it is set where a root node is created
// (newRoot), rebuilt by relayout and derived by TreeBuilder.Finish, and it
// is never serialized.
type Tree struct {
	children *node   // root's child list (the root represents the empty set)
	top      []*node // top[i]: the node of item i in the root's child list, or nil
	arena    arena   // holds every node of the tree
	spare    arena   // target of the next maintenance pass (see Prune)
	laid     int     // node count after the last Prune or Compact
	trans    []bool  // membership flags of the current transaction (Fig. 2's trans[])
	imin     int32   // lowest item code in the current transaction
	step     int32   // current update step = number of transactions processed
	weight   int32   // multiplicity of the current transaction (1 for AddTransaction)

	// Cancellation support: a single intersection pass can stream over
	// millions of nodes, so waiting for the pass to finish would make a
	// caller's timeout arbitrarily late. cancel is polled every
	// cancelInterval node visits; once it fires, the pass unwinds and the
	// tree contents are undefined (the mining run is being abandoned).
	cancel  func() bool
	ticks   int
	aborted bool
}

const cancelInterval = 1 << 14

// SetCancel installs a cancellation probe polled during intersection
// passes. A nil probe (the default) disables polling.
func (t *Tree) SetCancel(cancel func() bool) { t.cancel = cancel }

// Aborted reports whether a cancellation probe fired during a pass; the
// tree contents are undefined afterwards.
func (t *Tree) Aborted() bool { return t.aborted }

// NewTree returns an empty tree over item codes 0..items-1.
func NewTree(items int) *Tree {
	return &Tree{trans: make([]bool, items), top: make([]*node, items)}
}

// NodeCount returns the number of live tree nodes (excluding the root).
func (t *Tree) NodeCount() int { return t.arena.live }

// Step returns the number of transactions processed so far.
func (t *Tree) Step() int { return int(t.step) }

// AddTransaction processes one transaction: it inserts the transaction
// into the tree (new nodes start at support 0, per step 3.1 in Fig. 3 of
// the paper) and then runs the intersection pass, which also counts the
// transaction itself through the self-match. Empty transactions only
// advance the step counter. The items must be canonical (ascending).
func (t *Tree) AddTransaction(items itemset.Set) {
	t.addWeighted(items, 1)
}

// AddWeighted processes one transaction that occurs weight times in the
// multiset. It is exactly equivalent to weight consecutive AddTransaction
// calls with the same items — the intersection pass's support increments
// and its same-step discount both scale by the weight — but costs a single
// pass (only the step counter advances once instead of weight times). The
// parallel miner uses it to replay shard results as weighted transactions.
// Weights below 1 are ignored.
func (t *Tree) AddWeighted(items itemset.Set, weight int) {
	if weight < 1 {
		return
	}
	t.addWeighted(items, int32(weight))
}

func (t *Tree) addWeighted(items itemset.Set, weight int32) {
	t.step++
	t.weight = weight
	if len(items) == 0 {
		return
	}

	// Insert the transaction's path (descending item codes from the root):
	// the root-level node through the index, the rest by list search.
	hi := int32(items[len(items)-1])
	c := t.top[hi]
	if c == nil {
		c = t.newRoot(hi)
	}
	ins := &c.children
	for i := len(items) - 2; i >= 0; i-- {
		it := int32(items[i])
		for *ins != nil && (*ins).item > it {
			ins = &(*ins).sibling
		}
		if c := *ins; c != nil && c.item == it {
			ins = &c.children
			continue
		}
		n := t.arena.alloc()
		n.item = it
		n.sibling = *ins
		*ins = n
		ins = &n.children
	}

	// Intersection pass.
	for _, it := range items {
		t.trans[it] = true
	}
	t.imin = int32(items[0])
	t.isect(t.children, nil)
	for _, it := range items {
		t.trans[it] = false
	}
}

// newRoot creates the root-level node of item i, which must not exist
// yet, and indexes it. It is spliced into the root list after the nearest
// root node with a greater item, found through the index, so the list
// stays in descending order.
func (t *Tree) newRoot(i int32) *node {
	d := t.arena.alloc()
	d.item = i
	link := &t.children
	for j := int(i) + 1; j < len(t.top); j++ {
		if p := t.top[j]; p != nil {
			link = &p.sibling
			break
		}
	}
	d.sibling = *link
	*link = d
	t.top[i] = d
	return d
}

// isect is the recursive intersection procedure of Fig. 2. n traverses a
// sibling list of the existing tree; ins points at the link that holds the
// list representing the intersection of the already processed part of the
// transaction with the set represented by the path to n, i.e. where nodes
// for extended intersections must be looked up or inserted. ins == nil
// stands for the root's child list (the intersection so far is empty):
// there the node of an item is looked up in t.top instead of by the list
// search of Fig. 2, and a missing one is created by newRoot. Recursion
// through a node whose item is not in the transaction passes ins on
// unchanged, so nil stays nil until the first common item.
func (t *Tree) isect(n *node, ins **node) {
	trans, top, imin, step, weight := t.trans, t.top, t.imin, t.step, t.weight
	for n != nil {
		if t.aborted {
			return // unwind promptly across all recursion levels
		}
		if t.ticks--; t.ticks <= 0 {
			t.ticks = cancelInterval
			if t.cancel != nil && t.cancel() {
				t.aborted = true
				return
			}
		}
		i := n.item
		if trans[i] {
			// The item is in the intersection: find or create the node
			// for the extended intersection in the ins list.
			var d *node
			if ins == nil {
				d = top[i]
			} else {
				for d = *ins; d != nil && d.item > i; d = *ins {
					ins = &d.sibling
				}
				if d != nil && d.item != i {
					d = nil
				}
			}
			if d != nil {
				// Existing node: update its support. If it was already
				// updated in this step, discount the current transaction
				// before taking the maximum (the step field acts as an
				// incremental update flag).
				if d.step >= step {
					d.supp -= weight
				}
				if d.supp < n.supp {
					d.supp = n.supp
				}
				d.supp += weight
			} else {
				if ins == nil {
					d = t.newRoot(i)
				} else {
					d = t.arena.alloc()
					d.item = i
					d.sibling = *ins
					*ins = d
				}
				d.supp = n.supp + weight
			}
			d.step = step
			if i <= imin {
				// No item below imin can be in the transaction, so
				// neither deeper nodes nor later siblings (all of which
				// carry lower codes) can contribute.
				return
			}
			if n.children != nil {
				t.isect(n.children, &d.children)
			}
		} else {
			if i <= imin {
				return
			}
			// Item not in the intersection: descend without advancing the
			// insertion position.
			if n.children != nil {
				t.isect(n.children, ins)
			}
		}
		n = n.sibling
	}
}

// Report emits every closed item set with support ≥ minSupport, following
// Fig. 4: a node is reported iff its support reaches the minimum and
// strictly exceeds the maximum support of its children (otherwise the
// represented set has a superset with equal support and is not closed).
// The empty set is never reported. Each items slice passed to emit is
// newly allocated and owned by emit, which may keep it without copying.
//
// Like the intersection pass, the traversal polls the cancellation probe
// installed with SetCancel: a report pass over a large tree would
// otherwise keep running long after the caller recorded a cancellation.
// Once the probe fires the traversal unwinds promptly and Aborted reports
// true; the sets emitted so far remain a valid prefix.
func (t *Tree) Report(minSupport int, emit func(items itemset.Set, support int)) {
	if minSupport < 1 {
		minSupport = 1
	}
	path := make(itemset.Set, 0, 32)
	t.report(t.children, path, int32(minSupport), emit)
}

func (t *Tree) report(list *node, path itemset.Set, minSupport int32, emit func(items itemset.Set, support int)) {
	for c := list; c != nil; c = c.sibling {
		if t.aborted {
			return // unwind promptly across all recursion levels
		}
		if t.ticks--; t.ticks <= 0 {
			t.ticks = cancelInterval
			if t.cancel != nil && t.cancel() {
				t.aborted = true
				return
			}
		}
		maxChild := int32(-1)
		for g := c.children; g != nil; g = g.sibling {
			if g.supp >= minSupport && g.supp > maxChild {
				maxChild = g.supp
			}
		}
		// An infrequent child can never tie a frequent parent (it would
		// be frequent itself), so only frequent children matter for the
		// closedness check, exactly as in Fig. 4.
		sub := append(path, c.item)
		if c.supp >= minSupport && c.supp > maxChild {
			// The path carries item codes descending from the root;
			// reverse into canonical order.
			out := make(itemset.Set, len(sub))
			for i, it := range sub {
				out[len(sub)-1-i] = it
			}
			emit(out, int(c.supp))
		}
		// Support never increases from parent to child, so an infrequent
		// subtree contains nothing reportable (Fig. 4 skips it too).
		if c.supp >= minSupport {
			t.report(c.children, sub, minSupport, emit)
		}
	}
}

// Walk visits every node of the tree and emits its represented item set
// together with the node's current support value, in the same traversal
// order as Report but without any frequency or closedness filtering. The
// parallel merge uses it to enumerate closure candidates, whose supports
// are then recomputed exactly. Each items slice passed to emit is newly
// allocated and owned by emit, which may keep it without copying. Walk
// honors the SetCancel probe the same way Report does.
func (t *Tree) Walk(emit func(items itemset.Set, support int)) {
	path := make(itemset.Set, 0, 32)
	t.walk(t.children, path, emit)
}

func (t *Tree) walk(list *node, path itemset.Set, emit func(items itemset.Set, support int)) {
	for c := list; c != nil; c = c.sibling {
		if t.aborted {
			return
		}
		if t.ticks--; t.ticks <= 0 {
			t.ticks = cancelInterval
			if t.cancel != nil && t.cancel() {
				t.aborted = true
				return
			}
		}
		sub := append(path, c.item)
		out := make(itemset.Set, len(sub))
		for i, it := range sub {
			out[len(sub)-1-i] = it
		}
		emit(out, int(c.supp))
		t.walk(c.children, sub, emit)
	}
}
