package core

import (
	"math/rand"
	"testing"

	"repro/internal/itemset"
	"repro/internal/prep"
	"repro/internal/txdb"
)

// refAddWeighted is the reference for the indexed root lookups: AddWeighted
// as Fig. 2 writes it, finding every node, root-level ones included, by
// searching its sibling list. It never reads or writes the root index.
func refAddWeighted(t *Tree, items itemset.Set, weight int32) {
	t.step++
	t.weight = weight
	if len(items) == 0 {
		return
	}
	ins := &t.children
	for i := len(items) - 1; i >= 0; i-- {
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
	for _, it := range items {
		t.trans[it] = true
	}
	t.imin = int32(items[0])
	refIsect(t, t.children, &t.children)
	for _, it := range items {
		t.trans[it] = false
	}
}

// refIsect is the list-scanning intersection pass of Fig. 2 (without the
// cancellation polling).
func refIsect(t *Tree, n *node, ins **node) {
	for ; n != nil; n = n.sibling {
		i := n.item
		if !t.trans[i] {
			if i <= t.imin {
				return
			}
			refIsect(t, n.children, ins)
			continue
		}
		d := *ins
		for d != nil && d.item > i {
			ins = &d.sibling
			d = *ins
		}
		if d != nil && d.item == i {
			if d.step >= t.step {
				d.supp -= t.weight
			}
			if d.supp < n.supp {
				d.supp = n.supp
			}
			d.supp += t.weight
			d.step = t.step
		} else {
			d = t.arena.alloc()
			d.step, d.item, d.supp = t.step, i, n.supp+t.weight
			d.sibling = *ins
			*ins = d
		}
		if i <= t.imin {
			return
		}
		refIsect(t, n.children, &d.children)
	}
}

// checkIndex fails unless the root index is exact: top[i] is the root-list
// node of item i, and every other entry is nil.
func checkIndex(t *testing.T, tree *Tree) {
	t.Helper()
	if len(tree.top) != tree.Items() {
		t.Fatalf("root index has %d entries for %d items", len(tree.top), tree.Items())
	}
	roots := 0
	for r := tree.children; r != nil; r = r.sibling {
		if tree.top[r.item] != r {
			t.Fatalf("top[%d] = %p, root-list node %p", r.item, tree.top[r.item], r)
		}
		roots++
	}
	indexed := 0
	for _, r := range tree.top {
		if r != nil {
			indexed++
		}
	}
	if indexed != roots {
		t.Fatalf("root index holds %d nodes, root list %d", indexed, roots)
	}
}

// checkSigs fails unless the signatures are sound and in their place:
// every root has an entry; a depth-1 node has one only while sparse is
// set; no deeper node has one; no two nodes share one; and every entry is
// a superset of the classes below its node, whose absence would let isect
// skip a subtree that holds a transaction item. It returns the number of
// depth-1 entries.
func checkSigs(t *testing.T, tree *Tree) (depth1 int) {
	t.Helper()
	taken := make([]bool, tree.sigs.n)
	// walk returns the classes of list and below it, checking the
	// signatures of its nodes, which are at the given depth.
	var walk func(list *node, depth int) classSet
	walk = func(list *node, depth int) classSet {
		var all classSet
		for n := list; n != nil; n = n.sibling {
			below := walk(n.children, depth+1)
			all.set(n.item)
			all.or(&below)
			switch {
			case n.sig == 0 && depth == 0:
				t.Fatalf("root %d has no signature", n.item)
			case n.sig == 0:
				continue
			case depth > 1:
				t.Fatalf("node %d at depth %d has signature entry %d", n.item, depth, n.sig)
			case depth == 1 && !tree.sparse:
				t.Fatalf("depth-1 node %d has signature entry %d while sparse is unset", n.item, n.sig)
			case n.sig < 1 || n.sig >= tree.sigs.n || taken[n.sig]:
				t.Fatalf("node %d: signature entry %d taken or outside [1,%d)", n.item, n.sig, tree.sigs.n)
			}
			taken[n.sig] = true
			if depth == 1 {
				depth1++
			}
			have := tree.sigs.at(n.sig)
			for w := range below {
				if miss := below[w] &^ have[w]; miss != 0 {
					t.Fatalf("node %d: signature word %d lacks classes %#x of its subtree", n.item, w, miss)
				}
			}
		}
		return all
	}
	walk(tree.children, 0)
	return depth1
}

// depth1Sigs lists the depth-1 signatures in preorder, the zero set for a
// node without one.
func depth1Sigs(tree *Tree) []classSet {
	var out []classSet
	for r := tree.children; r != nil; r = r.sibling {
		for c := r.children; c != nil; c = c.sibling {
			var s classSet
			if c.sig != 0 {
				s = *tree.sigs.at(c.sig)
			}
			out = append(out, s)
		}
	}
	return out
}

// sameNodes reports whether two sibling lists hold the same items, steps
// and supports in the same shape: dump's comparison without rendering.
func sameNodes(a, b *node) bool {
	for ; a != nil && b != nil; a, b = a.sibling, b.sibling {
		if a.item != b.item || a.step != b.step || a.supp != b.supp || !sameNodes(a.children, b.children) {
			return false
		}
	}
	return a == nil && b == nil
}

// sparseDB draws n rows of 2 to 15 items each (duplicates collapse) from
// a universe of items, skewed toward the low codes so that rows share
// items.
func sparseDB(rng *rand.Rand, items, n int) *txdb.DB {
	b := txdb.NewBuilder(n, 0)
	b.SetNumItems(items)
	for k := 0; k < n; k++ {
		row := make([]itemset.Item, 2+rng.Intn(14))
		for j := range row {
			u := rng.Float64()
			row[j] = itemset.Item(float64(items) * u * u)
		}
		b.AddSet(itemset.New(row...))
	}
	return b.Build()
}

// TestIsectMatchesListSearch: a tree grown through the root index holds
// exactly the nodes, steps and supports of one grown by the list-scanning
// reference, in the same sibling order, after every transaction and every
// maintenance pass. It runs over random weighted databases, minsups
// (including 1) and pass spacings (0: the Maintain trigger), on trees
// past the maintenance threshold. The reference never skips a subtree,
// so the sparse databases, whose universes of 200 to 1 000 items leave
// most subtrees without a transaction item, check the signature skips
// against it: their rows have few classes, so the passes give depth-1
// nodes signatures, and isect must skip by them. Their trials alternate
// between universes of at most sigClasses items, where each class is one
// item, and larger ones, where classes alias. They are fed without prep:
// rare items keep high codes, so the roots of their sets fail the prune
// bound and lift their children, which the signatures must survive. The
// wide databases' rows have more than sigClasses/16 classes, so no pass
// may give a depth-1 node a signature.
func TestIsectMatchesListSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(118))
	var small, sparse, wide lockstepStats
	for trial := 0; trial < 10; trial++ {
		items := 8 + rng.Intn(40)
		n := 10 + rng.Intn(30)
		db := randDB(rng, items, n, 0.2+rng.Float64()*0.4)
		weights := make([]int, n)
		total := 0
		for k := range weights {
			weights[k] = 1 + rng.Intn(3)
			total += weights[k]
		}
		minsup := 1
		if trial%3 != 0 {
			minsup += rng.Intn(total/4 + 1)
		}
		pre := prep.Prepare(db, minsup, prep.Config{Items: prep.OrderAscFreq, Trans: prep.OrderSizeAsc})
		for _, every := range []int{0, 1, 3, 7} {
			small.add(lockstepIndex(t, pre.DB, weights, minsup, every))
		}
	}
	if small.largest <= pruneMinNodes || small.triggered == 0 {
		t.Fatalf("largest tree %d nodes, %d triggered passes: never past the maintenance threshold %d",
			small.largest, small.triggered, pruneMinNodes)
	}
	sparseTrials := 4
	if testing.Short() {
		sparseTrials = 2 // the list-scanning reference dominates, slowest under -race
	}
	for trial := 0; trial < sparseTrials; trial++ {
		items := 200 + rng.Intn(sigClasses-199) // one class per item
		if trial%2 == 1 {
			items = sigClasses + 1 + rng.Intn(1000-sigClasses) // aliased classes
		}
		n := 300 + rng.Intn(300)
		db := sparseDB(rng, items, n)
		weights := make([]int, n)
		for k := range weights {
			weights[k] = 1 + rng.Intn(3)
		}
		minsup := 1 + trial%4
		for _, every := range []int{0, 2, 5} {
			sparse.add(lockstepIndex(t, db, weights, minsup, every))
		}
	}
	if sparse.skipped == 0 || sparse.skipped1 == 0 || sparse.triggered == 0 || sparse.depth1 == 0 {
		t.Fatalf("sparse databases: %d skipped root and %d skipped depth-1 subtrees, %d triggered passes, at most %d depth-1 signatures",
			sparse.skipped, sparse.skipped1, sparse.triggered, sparse.depth1)
	}
	for trial := 0; trial < 3; trial++ {
		items := 56 + rng.Intn(16)
		n := 8 + rng.Intn(3)
		db := randDB(rng, items, n, 0.6+rng.Float64()*0.2)
		weights := make([]int, n)
		for k := range weights {
			weights[k] = 1 + rng.Intn(3)
		}
		minsup := 1 + trial
		pre := prep.Prepare(db, minsup, prep.Config{Items: prep.OrderAscFreq, Trans: prep.OrderSizeAsc})
		for _, every := range []int{1, 3} {
			wide.add(lockstepIndex(t, pre.DB, weights, minsup, every))
		}
	}
	if wide.depth1 != 0 || wide.passes == 0 {
		t.Fatalf("wide databases: %d depth-1 signatures after %d passes", wide.depth1, wide.passes)
	}
}

// lockstepStats sums what lockstepIndex saw of the indexed tree: its
// largest size, the passes (and those Maintain triggered), the root and
// depth-1 subtrees isect skipped, and the most depth-1 signatures held.
type lockstepStats struct {
	largest, passes, triggered, skipped, skipped1, depth1 int
}

func (s *lockstepStats) add(o lockstepStats) {
	s.largest, s.depth1 = max(s.largest, o.largest), max(s.depth1, o.depth1)
	s.passes += o.passes
	s.triggered += o.triggered
	s.skipped += o.skipped
	s.skipped1 += o.skipped1
}

// lockstepIndex feeds the same weighted transactions to an indexed tree
// and to the list-scanning reference, running a Prune pass on both every
// `every` transactions (0: whenever Maintain runs one on the indexed
// tree), and checks that they agree after every step.
func lockstepIndex(t *testing.T, pdb *txdb.DB, weights []int, minsup, every int) (st lockstepStats) {
	t.Helper()
	remain := make([]int, pdb.NumItems())
	for k := 0; k < pdb.NumTx(); k++ {
		for _, i := range pdb.Tx(k) {
			remain[i] += weights[k]
		}
	}
	indexed, ref := NewTree(pdb.NumItems()), NewTree(pdb.NumItems())
	same := func(when string, k int) {
		t.Helper()
		checkIndex(t, indexed)
		st.depth1 = max(st.depth1, checkSigs(t, indexed))
		if !sameNodes(indexed.children, ref.children) {
			got, want := dump(indexed), dump(ref)
			t.Fatalf("minsup %d, every %d, %s %d: indexed tree\n%s\nreference\n%s",
				minsup, every, when, k, got, want)
		}
		if indexed.NodeCount() != ref.NodeCount() {
			t.Fatalf("minsup %d, every %d, %s %d: NodeCount %d, reference %d",
				minsup, every, when, k, indexed.NodeCount(), ref.NodeCount())
		}
	}
	for k := 0; k < pdb.NumTx(); k++ {
		tx, w := pdb.Tx(k), weights[k]
		indexed.AddWeighted(tx, w)
		refAddWeighted(ref, tx, int32(w))
		same("transaction", k)
		st.largest = max(st.largest, indexed.NodeCount())
		for _, i := range tx {
			remain[i] -= w
		}
		switch {
		case every == 0:
			laid := indexed.laid
			indexed.maintain(remain, minsup)
			if indexed.laid == laid {
				continue
			}
			ref.Prune(remain, minsup)
			st.triggered++
		case (k+1)%every == 0:
			indexed.Prune(remain, minsup)
			ref.Prune(remain, minsup)
		default:
			continue
		}
		st.passes++
		same("pass after transaction", k)
	}
	if got, want := reported(indexed, minsup), reported(ref, minsup); got != want {
		t.Fatalf("minsup %d, every %d: Report differs:\n%s\n%s", minsup, every, got, want)
	}
	st.skipped, st.skipped1 = indexed.skipped, indexed.skipped1
	return st
}

// TestRootIndexRebuilt: a tree rebuilt from an export stream derives its
// root index and signatures from the rebuilt root list, and a restored
// miner keeps them exact and sound as it goes on mining.
func TestRootIndexRebuilt(t *testing.T) {
	stream := randomStream(14, 80, 118)
	m := NewIncremental(14)
	for _, tr := range stream[:40] {
		if err := m.AddSet(tr); err != nil {
			t.Fatal(err)
		}
	}
	b, err := NewTreeBuilder(m.Items(), m.Transactions())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Tree().Export(b.Add); err != nil {
		t.Fatal(err)
	}
	tree, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	checkIndex(t, tree)
	checkSigs(t, tree)
	resumed := RestoreIncremental(tree)
	checkIndex(t, resumed.Tree())
	checkSigs(t, resumed.Tree())
	for _, tr := range stream[40:] {
		if err := resumed.AddSet(tr); err != nil {
			t.Fatal(err)
		}
		if err := m.AddSet(tr); err != nil {
			t.Fatal(err)
		}
		checkIndex(t, resumed.Tree())
		checkSigs(t, resumed.Tree())
		if got, want := dump(resumed.Tree()), dump(m.Tree()); got != want {
			t.Fatalf("restored tree diverged:\n%s\nwant\n%s", got, want)
		}
	}
}
