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

// checkRootSigs fails unless every root's signature is a superset of the
// classes of its subtree, the root included: a missing class would let
// isect skip a subtree that holds a transaction item.
func checkRootSigs(t *testing.T, tree *Tree) {
	t.Helper()
	if len(tree.sig) != sigWords*tree.Items() {
		t.Fatalf("signature table has %d words for %d items", len(tree.sig), tree.Items())
	}
	for r := tree.children; r != nil; r = r.sibling {
		var exact classSet
		exact[classWord(r.item)] |= classBit(r.item)
		exact.add(r.children)
		have := (*classSet)(tree.sig[sigWords*r.item:])
		for w := range exact {
			if miss := exact[w] &^ have[w]; miss != 0 {
				t.Fatalf("root %d: signature word %d lacks classes %#x of its subtree", r.item, w, miss)
			}
		}
	}
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
// past the maintenance threshold. The reference never skips a root
// subtree, so the sparse databases, whose universes of 200 to 1 000 items
// leave most root subtrees without a transaction item, check the
// signature skips against it. Their trials alternate between universes
// of at most sigClasses items, where each class is one item, and larger
// ones, where classes alias. They are fed without prep: rare items keep
// high codes, so the roots of their sets fail the prune bound and lift
// their children, which the signatures must survive.
func TestIsectMatchesListSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(118))
	largest, triggered, sparseTriggered, skipped := 0, 0, 0, 0
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
			l, p, _ := lockstepIndex(t, pre.DB, weights, minsup, every)
			largest, triggered = max(largest, l), triggered+p
		}
	}
	if largest <= pruneMinNodes || triggered == 0 {
		t.Fatalf("largest tree %d nodes, %d triggered passes: never past the maintenance threshold %d",
			largest, triggered, pruneMinNodes)
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
			_, p, s := lockstepIndex(t, db, weights, minsup, every)
			sparseTriggered, skipped = sparseTriggered+p, skipped+s
		}
	}
	if skipped == 0 || sparseTriggered == 0 {
		t.Fatalf("sparse databases: %d skipped root subtrees, %d triggered passes", skipped, sparseTriggered)
	}
}

// lockstepIndex feeds the same weighted transactions to an indexed tree
// and to the list-scanning reference, running a Prune pass on both every
// `every` transactions (0: whenever Maintain runs one on the indexed
// tree), and checks that they agree after every step. It returns the
// largest tree size, the number of passes Maintain triggered and the
// number of root subtrees the indexed tree skipped.
func lockstepIndex(t *testing.T, pdb *txdb.DB, weights []int, minsup, every int) (largest, triggered, skipped int) {
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
		checkRootSigs(t, indexed)
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
		largest = max(largest, indexed.NodeCount())
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
			triggered++
		case (k+1)%every == 0:
			indexed.Prune(remain, minsup)
			ref.Prune(remain, minsup)
		default:
			continue
		}
		same("pass after transaction", k)
	}
	if got, want := reported(indexed, minsup), reported(ref, minsup); got != want {
		t.Fatalf("minsup %d, every %d: Report differs:\n%s\n%s", minsup, every, got, want)
	}
	return largest, triggered, indexed.skipped
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
	checkRootSigs(t, tree)
	resumed := RestoreIncremental(tree)
	checkIndex(t, resumed.Tree())
	checkRootSigs(t, resumed.Tree())
	for _, tr := range stream[40:] {
		if err := resumed.AddSet(tr); err != nil {
			t.Fatal(err)
		}
		if err := m.AddSet(tr); err != nil {
			t.Fatal(err)
		}
		checkIndex(t, resumed.Tree())
		checkRootSigs(t, resumed.Tree())
		if got, want := dump(resumed.Tree()), dump(m.Tree()); got != want {
			t.Fatalf("restored tree diverged:\n%s\nwant\n%s", got, want)
		}
	}
}
