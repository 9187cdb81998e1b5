// Package fpgrowth implements FP-growth (Han et al.) and its closed-set
// variant FP-close (Grahne & Zhu), the strongest item set *enumeration*
// baseline the paper compares against (the FIMI'03 winning implementation).
//
// The FP-tree stores the database as a prefix tree of transactions with
// per-item node chains; mining proceeds by projecting conditional pattern
// bases. For the closed target, each branch first absorbs its perfect
// extensions into a closure candidate, which is checked against a CFI
// repository: because items are processed in ascending frequency
// (descending code) order, any same-support superset of a candidate has
// either already been inserted (extra item with larger code) or is part of
// the candidate itself (smaller-code perfect extensions are absorbed), so
// a candidate that is not subsumed can be reported immediately, and a
// subsumed candidate prunes its entire branch.
package fpgrowth

import (
	"repro/internal/engine"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/prep"
	"repro/internal/result"
)

// fpNode is one FP-tree node.
type fpNode struct {
	item     int32
	count    int32
	parent   *fpNode
	next     *fpNode // header chain of nodes with the same item
	children map[int32]*fpNode
}

// fpTree is an FP-tree plus its header table.
type fpTree struct {
	root   fpNode
	heads  []*fpNode // per item code
	counts []int32   // per item support within this (conditional) tree
}

func newFPTree(items int) *fpTree {
	return &fpTree{
		heads:  make([]*fpNode, items),
		counts: make([]int32, items),
	}
}

// insert adds a path of ascending item codes with the given count.
func (t *fpTree) insert(path []int32, count int32) {
	node := &t.root
	for _, it := range path {
		t.counts[it] += count
		child := node.children[it]
		if child == nil {
			child = &fpNode{item: it, parent: node, next: t.heads[it]}
			t.heads[it] = child
			if node.children == nil {
				node.children = make(map[int32]*fpNode, 4)
			}
			node.children[it] = child
		}
		child.count += count
		node = child
	}
}

// minePrepared is FP-growth / FP-close on an already preprocessed
// database.
func minePrepared(pre *prep.Prepared, minsup int, target engine.Target, ctl *mining.Control, rep result.Reporter) error {
	pdb := pre.DB
	if pdb.NumItems() == 0 {
		return nil
	}

	tree := newFPTree(pdb.NumItems())
	for k, n := 0, pdb.NumTx(); k < n; k++ {
		// Rows are []int32 already — the FP-tree consumes them directly,
		// with the row weight as the path count.
		tree.insert(pdb.Tx(k), int32(pdb.Weight(k)))
	}

	m := &fpMiner{
		minsup: int32(minsup),
		target: target,
		pre:    pre,
		rep:    rep,
		ctl:    ctl,
	}
	prefix := make(itemset.Set, 0, 32)
	return m.mine(tree, prefix)
}

type fpMiner struct {
	minsup int32
	target engine.Target
	pre    *prep.Prepared
	rep    result.Reporter
	ctl    *mining.Control
	cfi    result.CFITree // repository for the closed target
}

// mine processes one (conditional) FP-tree whose patterns all extend
// prefix. Items are visited in descending code order (ascending
// frequency), matching the divide-and-conquer scheme of §2.2.
func (m *fpMiner) mine(tree *fpTree, prefix itemset.Set) error {
	for i := len(tree.counts) - 1; i >= 0; i-- {
		supp := tree.counts[i]
		if supp < m.minsup {
			continue
		}
		if err := m.ctl.Tick(); err != nil {
			return err
		}
		m.ctl.CountOps(1) // one conditional projection per frequent item

		// Count the conditional pattern base of item i.
		condCounts := make([]int32, i) // only items with smaller codes occur above i
		for n := tree.heads[i]; n != nil; n = n.next {
			for p := n.parent; p != nil && p.parent != nil; p = p.parent {
				condCounts[p.item] += n.count
			}
		}

		switch m.target {
		case engine.All:
			m.emit(append(prefix, itemset.Item(i)), int(supp))
			cond := m.buildConditional(tree, i, condCounts, nil)
			if cond != nil {
				if err := m.mine(cond, append(prefix, itemset.Item(i))); err != nil {
					return err
				}
			}

		case engine.Closed:
			// Perfect extensions: conditional items occurring in every
			// transaction that contains prefix∪{i}.
			var perfect []int32
			for j, c := range condCounts {
				if c == supp {
					perfect = append(perfect, int32(j))
				}
			}
			// Closure candidate: prefix ∪ {i} ∪ perfect extensions.
			cand := make(itemset.Set, 0, len(prefix)+1+len(perfect))
			cand = append(cand, prefix...)
			cand = append(cand, itemset.Item(i))
			for _, j := range perfect {
				cand = append(cand, itemset.Item(j))
			}
			canon := itemset.Canonicalize(cand)
			if m.cfi.Subsumed(canon, int(supp)) {
				// A previously reported closed superset with equal
				// support exists; neither this candidate nor anything in
				// its branch can be closed.
				continue
			}
			m.cfi.Insert(canon, int(supp))
			m.ctl.CountNodes(m.cfi.NodeCount())
			m.emit(canon, int(supp))

			cond := m.buildConditional(tree, i, condCounts, perfect)
			if cond != nil {
				newPrefix := canon.Clone()
				if err := m.mine(cond, newPrefix); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// buildConditional materializes the conditional FP-tree of item i,
// dropping infrequent conditional items and (for the closed target) the
// perfect extensions, which are carried in the prefix instead. Returns nil
// if the conditional database is empty.
func (m *fpMiner) buildConditional(tree *fpTree, i int, condCounts []int32, perfect []int32) *fpTree {
	skip := make(map[int32]bool, len(perfect))
	for _, j := range perfect {
		skip[j] = true
	}
	any := false
	for j, c := range condCounts {
		if c >= m.minsup && !skip[int32(j)] {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	cond := newFPTree(i)
	path := make([]int32, 0, 32)
	for n := tree.heads[i]; n != nil; n = n.next {
		path = path[:0]
		for p := n.parent; p != nil && p.parent != nil; p = p.parent {
			if condCounts[p.item] >= m.minsup && !skip[p.item] {
				path = append(path, p.item)
			}
		}
		if len(path) == 0 {
			continue
		}
		// The walk produced descending codes (leaf to root); reverse into
		// ascending insertion order.
		for a, b := 0, len(path)-1; a < b; a, b = a+1, b-1 {
			path[a], path[b] = path[b], path[a]
		}
		cond.insert(path, n.count)
	}
	return cond
}

// emit decodes and reports one pattern.
func (m *fpMiner) emit(items itemset.Set, supp int) {
	m.rep.Report(m.pre.DecodeSet(items), supp)
}
