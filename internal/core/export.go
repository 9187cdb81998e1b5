package core

import (
	"fmt"
	"math"
)

// This file is the persistence seam of the IsTa repository. Because the
// prefix tree holds the closed item sets of every transaction processed
// so far (the recursive relation (1) in §3.2 of the paper), the tree —
// together with the item universe and the step counter — *is* the
// complete mining state: exporting its nodes and rebuilding them later
// resumes the cumulative intersection exactly where it stopped. The
// binary codec itself lives in internal/persist; core only provides the
// structural walk (Export) and its validated inverse (TreeBuilder), so
// the node layout stays private to this package.

// NodeRecord describes one prefix-tree node in the preorder export
// stream: its depth below the root (0 for the root's children), the
// node's item code, its most recent update step and its support. A
// preorder stream of NodeRecords determines the tree uniquely.
type NodeRecord struct {
	Depth int32
	Item  int32
	Step  int32
	Supp  int32
}

// Export walks the tree in preorder — siblings in stored order, i.e.
// descending item codes — and hands every node to emit. A non-nil error
// from emit aborts the walk and is returned. Export does not modify the
// tree; it must not run concurrently with AddTransaction.
func (t *Tree) Export(emit func(NodeRecord) error) error {
	return exportList(t.children, 0, emit)
}

func exportList(list *node, depth int32, emit func(NodeRecord) error) error {
	for n := list; n != nil; n = n.sibling {
		if err := emit(NodeRecord{Depth: depth, Item: n.item, Step: n.step, Supp: n.supp}); err != nil {
			return err
		}
		if n.children != nil {
			if err := exportList(n.children, depth+1, emit); err != nil {
				return err
			}
		}
	}
	return nil
}

// Items returns the size of the item universe the tree was built over.
func (t *Tree) Items() int { return len(t.trans) }

// TreeBuilder reconstructs a Tree from a preorder NodeRecord stream as
// produced by Export. Add validates every structural invariant of the
// tree — depth continuity, item ranges, descending sibling order,
// children below their parent, step and support bounds — so a decoder
// may feed it untrusted bytes: a stream the builder accepts yields a
// tree indistinguishable from one grown by AddTransaction calls, and
// anything else fails with a typed error before it can corrupt state.
type TreeBuilder struct {
	t     *Tree
	step  int32    // final step counter, upper bound for node steps
	tails []**node // tails[d]: link where the next node at depth d attaches
	last  []*node  // last[d]: most recently added node at depth d
	bound []int32  // bound[d]: next item at depth d must be < bound[d]
	nodes int
}

// NewTreeBuilder starts rebuilding a tree over item codes 0..items-1
// whose step counter will be step (the number of transactions the
// exported tree had processed).
func NewTreeBuilder(items, step int) (*TreeBuilder, error) {
	if items < 0 {
		return nil, fmt.Errorf("core: negative item universe %d", items)
	}
	if step < 0 || step > math.MaxInt32 {
		return nil, fmt.Errorf("core: step counter %d out of range", step)
	}
	// The root index and signatures are left to Finish (see there).
	t := &Tree{trans: make([]bool, items)}
	b := &TreeBuilder{t: t, step: int32(step)}
	b.tails = append(b.tails, &t.children)
	b.last = append(b.last, nil)
	b.bound = append(b.bound, math.MaxInt32)
	return b, nil
}

// Add appends the next preorder node. It fails if the record cannot be
// part of a valid export stream at this position.
func (b *TreeBuilder) Add(r NodeRecord) error {
	if b.t == nil {
		return fmt.Errorf("core: builder already finished")
	}
	d := int(r.Depth)
	switch {
	case d < 0 || d >= len(b.tails)+1 || d >= b.t.Items():
		return fmt.Errorf("core: node depth %d invalid after depth %d", d, len(b.tails)-1)
	case r.Item < 0 || int(r.Item) >= b.t.Items():
		return fmt.Errorf("core: node item %d outside universe [0,%d)", r.Item, b.t.Items())
	case r.Step < 0 || r.Step > b.step:
		return fmt.Errorf("core: node step %d outside [0,%d]", r.Step, b.step)
	case r.Supp < 0:
		return fmt.Errorf("core: negative node support %d", r.Supp)
	}
	if d == len(b.tails) {
		// First child of the most recently added node: open a new level.
		// Its insertion point is that node's children link; the parent's
		// item bounds the child's (children carry lower codes).
		parent := b.last[d-1]
		if parent == nil {
			return fmt.Errorf("core: node depth %d with no parent node", d)
		}
		b.tails = append(b.tails, &parent.children)
		b.last = append(b.last, nil)
		b.bound = append(b.bound, parent.item)
	} else if d < len(b.tails)-1 {
		// Sibling at a shallower level: close the deeper levels.
		b.tails = b.tails[:d+1]
		b.last = b.last[:d+1]
		b.bound = b.bound[:d+1]
	}
	if r.Item >= b.bound[d] {
		return fmt.Errorf("core: node item %d out of order (must be < %d at depth %d)", r.Item, b.bound[d], d)
	}
	n := b.t.arena.alloc()
	n.item, n.step, n.supp = r.Item, r.Step, r.Supp
	*b.tails[d] = n
	b.tails[d] = &n.sibling
	b.last[d] = n
	b.bound[d] = r.Item
	b.nodes++
	return nil
}

// Nodes returns the number of nodes added so far.
func (b *TreeBuilder) Nodes() int { return b.nodes }

// Finish completes the rebuild and returns the tree. It derives the root
// index and the root signatures from the rebuilt root list; the stream
// carries neither. The index costs 8 bytes per item and the signatures 64
// bytes per root, allocated here rather than per record, so that they
// stay unallocated until the caller has validated the whole stream
// (internal/persist calls Finish only after the checksum matched): a
// corrupt header declaring a huge item universe costs no more than the
// membership flags. A rebuilt tree starts with sparse unset; its first
// maintenance pass decides it.
func (b *TreeBuilder) Finish() (*Tree, error) {
	if b.t == nil {
		return nil, fmt.Errorf("core: builder already finished")
	}
	t := b.t
	t.top = make([]*node, len(t.trans))
	t.indexRoots()
	t.sign()
	t.step = b.step
	b.t = nil
	return t, nil
}
