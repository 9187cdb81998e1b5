// Package core implements IsTa, the paper's primary contribution
// (§3.2–3.4): mining closed frequent item sets by cumulative intersection.
// A prefix tree stores all closed item sets of the transactions processed
// so far; each new transaction is first inserted into the tree and then
// intersected with every stored set in one recursive pass that creates the
// new intersections in place (Fig. 2 of the paper). A final traversal
// reports the nodes that are frequent and closed (Fig. 4).
package core

import (
	"math/bits"

	"repro/internal/itemset"
)

// node is a prefix tree node, mirroring Fig. 1 of the paper. The item set
// represented by a node consists of the node's item plus the items on the
// path to the root. Children always carry items with lower codes than
// their parent, and sibling lists are sorted by descending item code.
//
// (An int32-index arena layout was tried twice and measured slower than
// plain pointers: the extra address arithmetic and bounds checks in the
// traversal hot loop cost more than the smaller nodes saved. The second
// time, with isect already a loop, it freed collections from scanning the
// arena but left an IsTa mine of 2 000 short baskets 12% slower.)
type node struct {
	item     int32 // associated item (last in the represented set)
	step     int32 // most recent update step (transaction index + 1)
	supp     int32 // support of the represented item set
	sig      int32 // entry in the tree's signature table; 0: none
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

// arenaBlock is the slab size in nodes. A finished run leaves the last
// block of both arenas partly empty; at 2 048 nodes (80 KB) that slack is
// a quarter of what 8 192 left, and perfbench's IsTa jobs did not slow.
const arenaBlock = 2048

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
//
// sigs holds subtree signatures, one per node that has an entry
// (node.sig != 0): bit c of an entry set means that some node below that
// node may carry an item of class c = item mod sigClasses. A clear bit is
// a promise, a set bit only a maybe, so isect may skip a subtree whose
// signature shares no class with the transaction: nothing below the node
// carries a transaction item, and the pass would only descend through it.
// Every root has an entry. The roots' children (depth-1 nodes) get
// entries too, but only while sparse is set: on rows with many classes
// their signatures fill up and the test costs more than it skips. Every
// change to the tree keeps the signatures supersets (see addWeighted,
// newRoot, isect and relayout); relayout recomputes the depth-1 ones
// exactly and TreeBuilder.Finish derives the roots' exactly.
type Tree struct {
	children  *node    // root's child list (the root represents the empty set)
	top       []*node  // top[i]: the node of item i in the root's child list, or nil
	sigs      sigTable // the entries node.sig indexes
	spareSigs sigTable // target of the next maintenance pass, like spare
	arena     arena    // holds every node of the tree
	spare     arena    // target of the next maintenance pass (see Prune)
	laid      int      // node count after the last Prune or Compact
	trans     []bool   // membership flags of the current transaction (Fig. 2's trans[])
	mask      classSet // item classes of the current transaction
	imin      int32    // lowest item code in the current transaction
	step      int32    // current update step = number of transactions processed
	weight    int32    // multiplicity of the current transaction (1 for AddTransaction)
	rows      int      // nonempty transactions added
	classes   int      // their classes, summed: rows*sigClasses/16 or less makes sparse
	sparse    bool     // depth-1 nodes get signatures; decided by relayout
	skipped   int      // root subtrees isect skipped by their signature
	skipped1  int      // depth-1 subtrees isect skipped by their signature

	// Cancellation support: a single intersection pass can stream over
	// millions of nodes, so waiting for the pass to finish would make a
	// caller's timeout arbitrarily late. cancel is polled every
	// cancelInterval node visits; once it fires, the pass unwinds and the
	// tree contents are undefined (the mining run is being abandoned).
	cancel  func() bool
	ticks   int
	aborted bool
	stack   []frame // isect's and copyList's pending lists
}

// Signatures map item i to class i mod sigClasses, one bit in sigWords
// words. Prep codes the kept items densely from 0, so on universes of at
// most sigClasses items every class is one item.
const (
	sigWords   = 8
	sigClasses = 64 * sigWords
)

// classSet is one signature's bits, or a transaction's classes.
type classSet [sigWords]uint64

// allClasses is the signature that promises nothing.
var allClasses = classSet{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}

// set adds item i's class.
func (s *classSet) set(i int32) { s[i>>6&(sigWords-1)] |= 1 << (i & 63) }

// or adds the classes of o.
func (s *classSet) or(o *classSet) {
	for w := range s {
		s[w] |= o[w]
	}
}

// misses reports whether s and m share no class.
func (s *classSet) misses(m *classSet) bool {
	var x uint64
	for w := range s {
		x |= s[w] & m[w]
	}
	return x == 0
}

// add sets the classes of every node in list and below it.
func (s *classSet) add(list *node) {
	for n := list; n != nil; n = n.sibling {
		s.set(n.item)
		s.add(n.children)
	}
}

// sigTable is a table of signatures indexed by node.sig. It grows in
// fixed blocks of sigBlock entries, which never move, so a pointer to an
// entry stays valid while the table grows. Entry 0 stands for "no
// signature" and is never handed out. Like the arenas, a table is only
// filled: a maintenance pass fills the spare table, the two swap, and the
// one left is reset and reused.
type sigTable struct {
	blocks [][]classSet
	n      int32 // entries handed out, entry 0 included
}

// sigBlock is the table's block size in entries (8 KB), small next to
// the arenas' blocks because a table holds a few entries per hundred
// nodes or, with sparse rows, about one per four.
const (
	sigShift = 7
	sigBlock = 1 << sigShift
)

// at returns entry e.
func (s *sigTable) at(e int32) *classSet { return &s.blocks[e>>sigShift][e&(sigBlock-1)] }

// add hands out an empty entry.
func (s *sigTable) add() int32 {
	e := max(s.n, 1)
	if int(e>>sigShift) == len(s.blocks) {
		s.blocks = append(s.blocks, make([]classSet, sigBlock))
	}
	s.n = e + 1
	*s.at(e) = classSet{}
	return e
}

// reset empties the table, keeping its blocks.
func (s *sigTable) reset() { s.n = 1 }

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
	// The path's nodes below depth 1 carry the items items[:lo].
	lo := max(len(items)-2, 0)
	var below classSet
	for _, it := range items[:lo] {
		t.trans[it] = true
		below.set(it)
	}
	mask := below
	for _, it := range items[lo:] {
		t.trans[it] = true
		mask.set(it)
	}
	t.mask = mask
	t.rows++
	for _, w := range mask {
		t.classes += bits.OnesCount64(w)
	}

	// Insert the transaction's path (descending item codes from the root):
	// the root-level node through the index, the rest by list search. The
	// path's items below the root join the root's signature, those below
	// depth 1 the depth-1 node's.
	hi := int32(items[len(items)-1])
	c := t.top[hi]
	if c == nil {
		c = t.newRoot(hi)
	}
	s := t.sigs.at(c.sig)
	s.or(&below)
	ins := &c.children
	for i := len(items) - 2; i >= 0; i-- {
		it := int32(items[i])
		for *ins != nil && (*ins).item > it {
			ins = &(*ins).sibling
		}
		c := *ins
		if c == nil || c.item != it {
			c = t.arena.alloc()
			c.item = it
			c.sibling = *ins
			*ins = c
			if i == lo && t.sparse {
				c.sig = t.sigs.add()
			}
		}
		if i == lo {
			s.set(it)
			if c.sig != 0 {
				t.sigs.at(c.sig).or(&below)
			}
		}
		ins = &c.children
	}

	// Intersection pass.
	t.imin = int32(items[0])
	t.isect()
	for _, it := range items {
		t.trans[it] = false
	}
}

// newRoot creates the root-level node of item i, which must not exist
// yet, and indexes it. It is spliced into the root list after the nearest
// root node with a greater item, found through the index, so the list
// stays in descending order. Its signature starts empty.
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
	d.sig = t.sigs.add()
	return d
}

// sign derives every signature exactly from the tree: each root's and,
// while sparse is set, each depth-1 node's.
func (t *Tree) sign() {
	t.sigs.reset()
	signList(&t.sigs, t.children)
	for r := t.children; r != nil; r = r.sibling {
		if t.sparse {
			signList(&t.sigs, r.children)
			continue
		}
		for c := r.children; c != nil; c = c.sibling {
			c.sig = 0
		}
	}
}

// signList gives every node of list a new entry in tab holding exactly
// the classes below it.
func signList(tab *sigTable, list *node) {
	for n := list; n != nil; n = n.sibling {
		n.sig = tab.add()
		tab.at(n.sig).add(n.children)
	}
}

// isect is the intersection procedure of Fig. 2. Its outer loop walks the
// root list, which it reads through the root index and the signatures:
// a root whose item is in the transaction matches itself; a root whose
// signature shares no class with the transaction is skipped, subtree and
// all, because descending through it would find no common item; and the
// pass ends at the first root below the transaction's lowest item, as
// Fig. 2's does. Any other root's subtree goes to the inner loop.
//
// The inner loop runs Fig. 2's recursion over an explicit stack of the
// sibling lists still to visit. n traverses a sibling list of the
// existing tree; ins points at the link that holds the list representing
// the intersection of the already processed part of the transaction with
// the set represented by the path to n, i.e. where nodes for extended
// intersections must be looked up or inserted. ins == nil stands for the
// root's child list (the intersection so far is empty): there the node of
// an item is looked up in t.top instead of by the list search of Fig. 2,
// and a missing one is created by newRoot. Descending through a node
// whose item is not in the transaction keeps ins unchanged, so nil stays
// nil until the first common item.
//
// A node of the inner loop that has a signature (a depth-1 node) is
// tested like a root: one whose signature misses the transaction is not
// descended into, whether it matched or not, since nothing below it can.
//
// The signatures that a created node joins follow ins. Descending from a
// root-level match takes that root's entry: every node the descent
// creates is below it. A frame popped with a non-nil ins was pushed under
// the same root, so one entry suffices. Descending from a match in a
// root's child list takes the depth-1 node's entry as deep and marks the
// stack height in h2: frames above the mark were pushed below that node,
// so a pop below the mark clears it, and the mark tells the two apart
// without a level in every frame. A node created while the mark is set
// joins deep as well; one created in a root's child list is a depth-1
// node and gets an entry of its own while sparse is set.
//
// Where Fig. 2 recurses into a node's children and then goes on with its
// sibling, the loop pushes the sibling with its ins, descends, and pops
// the sibling once the child list is done or cut off; that saves a call
// and its register spills per descent. (A root that the descent creates
// right behind the node is then not visited; visiting it would change
// nothing, since it is its own intersection.)
func (t *Tree) isect() {
	if t.aborted {
		return // the tree is being abandoned
	}
	trans, top, imin, step, weight, sparse := t.trans, t.top, t.imin, t.step, t.weight, t.sparse
	mask := &t.mask
	stack := t.stack[:0]
	var none classSet // deep's target below a depth-1 node without an entry
	for r := t.children; r != nil && r.item >= imin; {
		next := r.sibling
		var n *node
		var ins **node
		var root *classSet // signature of the root the descent creates nodes under
		if i := r.item; trans[i] {
			// The root matches itself (Fig. 2's update with d == n):
			// count the transaction once.
			if r.step != step {
				r.supp += weight
				r.step = step
			}
			if i == imin {
				break
			}
			n, ins, root = r.children, &r.children, t.sigs.at(r.sig)
		} else {
			if t.sigs.at(r.sig).misses(mask) {
				t.skipped++
				r = next
				continue
			}
			n = r.children
		}
		deep, h2 := &none, -1 // no mark: the walk inserts above depth 2
		for {
			for n != nil {
				if t.ticks--; t.ticks <= 0 {
					t.ticks = cancelInterval
					if t.cancel != nil && t.cancel() {
						t.aborted = true
						t.stack = stack
						return
					}
				}
				i := n.item
				if !trans[i] {
					if i <= imin {
						break // see below
					}
					// Item not in the intersection: descend without
					// advancing the insertion position.
					if n.children != nil {
						if n.sig != 0 && t.sigs.at(n.sig).misses(mask) {
							t.skipped1++
							n = n.sibling
							continue
						}
						if n.sibling != nil {
							stack = append(stack, frame{n.sibling, ins})
						}
						n = n.children
						continue
					}
					n = n.sibling
					continue
				}
				// The item is in the intersection: find or create the
				// node for the extended intersection in the ins list.
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
					// Existing node: update its support. If it was
					// already updated in this step, discount the current
					// transaction before taking the maximum (the step
					// field acts as an incremental update flag).
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
						root.set(i)
						if h2 >= 0 {
							deep.set(i)
						} else if sparse {
							d.sig = t.sigs.add()
						}
					}
					d.supp = n.supp + weight
				}
				d.step = step
				if i <= imin {
					// No item below imin can be in the transaction, so
					// neither deeper nodes nor later siblings (all of
					// which carry lower codes) can contribute.
					break
				}
				if n.children != nil {
					if n.sig != 0 && t.sigs.at(n.sig).misses(mask) {
						t.skipped1++
						n = n.sibling
						continue
					}
					if n.sibling != nil {
						stack = append(stack, frame{n.sibling, ins})
					}
					switch {
					case ins == nil:
						root = t.sigs.at(d.sig)
					case h2 < 0 && sparse:
						deep, h2 = &none, len(stack)
						if d.sig != 0 {
							deep = t.sigs.at(d.sig)
						}
					}
					n, ins = n.children, &d.children
					continue
				}
				n = n.sibling
			}
			if len(stack) == 0 {
				break
			}
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			n, ins = f.n, f.ins
			if len(stack) < h2 {
				h2 = -1
			}
		}
		r = next
	}
	t.stack = stack
}

// frame is a sibling list that a tree walk has yet to visit: its next
// node and the link that goes with it (isect's insertion link, copyList's
// tail).
type frame struct {
	n   *node
	ins **node
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
