package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/gendata"
	"repro/internal/itemset"
	"repro/internal/naive"
	"repro/internal/prep"
	"repro/internal/result"
	"repro/internal/txdb"
)

// refPrune is the reference for the fused maintenance pass: the in-place
// item-elimination prune it replaced, which relinks the tree's own nodes
// and only drops the removed ones from the live count. refCompact then
// rebuilds the tree in preorder into a fresh arena, as the separate
// compaction did. Both assign the root list directly, so both rebuild the
// root index and the signatures from it.
func refPrune(t *Tree, remain []int, minSupport int) {
	if minSupport <= 1 {
		return
	}
	t.children = refPruneList(t, t.children, remain, int32(minSupport))
	reindex(t)
}

// reindex rebuilds the root index from the root list and every signature
// exactly from the tree, under the rule relayout applies.
func reindex(t *Tree) {
	clear(t.top)
	t.indexRoots()
	t.sparse = t.sparseRows()
	t.sign()
}

func refPruneList(t *Tree, list *node, remain []int, minSupport int32) *node {
	var head *node
	tail := &head
	n := list
	for n != nil {
		next := n.sibling
		if n.supp+int32(remain[n.item]) < minSupport {
			t.arena.live--
			n = refMerge(t, n.children, next)
			continue
		}
		n.children = refPruneList(t, n.children, remain, minSupport)
		*tail = n
		tail = &n.sibling
		n = next
	}
	*tail = nil
	return head
}

func refMerge(t *Tree, a, b *node) *node {
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
			if b.supp > a.supp {
				a.supp = b.supp
			}
			a.children = refMerge(t, a.children, b.children)
			bn := b.sibling
			t.arena.live--
			*tail = a
			tail = &a.sibling
			a = a.sibling
			b = bn
		}
	}
	if a != nil {
		*tail = a
	} else {
		*tail = b
	}
	return head
}

func refCompact(t *Tree) {
	var fresh arena
	t.children = refCompactList(&fresh, t.children)
	t.arena = fresh
	reindex(t)
}

func refCompactList(dst *arena, n *node) *node {
	var head *node
	tail := &head
	for ; n != nil; n = n.sibling {
		c := dst.alloc()
		c.item, c.step, c.supp = n.item, n.step, n.supp
		*tail = c
		tail = &c.sibling
		c.children = refCompactList(dst, n.children)
	}
	return head
}

// dump renders every node in preorder as depth:item/step/supp, the whole
// logical content of the tree.
func dump(t *Tree) string {
	var sb strings.Builder
	var rec func(list *node, depth int)
	rec = func(list *node, depth int) {
		for c := list; c != nil; c = c.sibling {
			fmt.Fprintf(&sb, "%d:%d/%d/%d ", depth, c.item, c.step, c.supp)
			rec(c.children, depth+1)
		}
	}
	rec(t.children, 0)
	return sb.String()
}

// walked is the tree's Walk output in order.
func walked(t *Tree) string {
	var sb strings.Builder
	t.Walk(func(s itemset.Set, supp int) { fmt.Fprintf(&sb, "%s:%d ", s.Key(), supp) })
	return sb.String()
}

// checkPreorder fails unless the i-th node in preorder is the i-th node of
// the tree's arena: the layout a maintenance pass promises.
func checkPreorder(t *testing.T, tree *Tree) {
	t.Helper()
	i := 0
	var rec func(list *node) bool
	rec = func(list *node) bool {
		for c := list; c != nil; c = c.sibling {
			if c != &tree.arena.blocks[i/arenaBlock][i%arenaBlock] {
				t.Errorf("preorder node %d is not arena slot %d", i, i)
				return false
			}
			i++
			if !rec(c.children) {
				return false
			}
		}
		return true
	}
	if rec(tree.children) && i != tree.NodeCount() {
		t.Errorf("preorder walk saw %d nodes, NodeCount = %d", i, tree.NodeCount())
	}
}

// lockstep feeds the same weighted transactions to a tree maintained by
// Prune and to one maintained by the reference prune and compaction,
// passing every `every` transactions, and checks after each pass and at
// the end that both trees agree. The pass gives the depth-1 nodes exact
// signatures, so they must equal the ones reindex derives.
func lockstep(t *testing.T, pdb *txdb.DB, weights []int, remain []int, minsup, every int) {
	t.Helper()
	fused, ref := NewTree(pdb.NumItems()), NewTree(pdb.NumItems())
	passes := 0
	for k := 0; k < pdb.NumTx(); k++ {
		tx, w := pdb.Tx(k), weights[k]
		fused.AddWeighted(tx, w)
		ref.AddWeighted(tx, w)
		for _, i := range tx {
			remain[i] -= w
		}
		if (k+1)%every != 0 {
			continue
		}
		passes++
		fused.Prune(remain, minsup)
		fused.Compact()
		refPrune(ref, remain, minsup)
		refCompact(ref)
		if got, want := dump(fused), dump(ref); got != want {
			t.Fatalf("minsup %d, pass %d: fused tree\n%s\nreference\n%s", minsup, passes, got, want)
		}
		if got, want := walked(fused), walked(ref); got != want {
			t.Fatalf("minsup %d, pass %d: Walk differs:\n%s\n%s", minsup, passes, got, want)
		}
		if fused.NodeCount() != ref.NodeCount() {
			t.Fatalf("minsup %d, pass %d: NodeCount %d, reference %d", minsup, passes, fused.NodeCount(), ref.NodeCount())
		}
		checkPreorder(t, fused)
		checkIndex(t, fused)
		checkSigs(t, fused)
		checkSigs(t, ref)
		if !slices.Equal(depth1Sigs(fused), depth1Sigs(ref)) {
			t.Fatalf("minsup %d, pass %d: depth-1 signatures differ from the exact ones", minsup, passes)
		}
	}
	if got, want := reported(fused, minsup), reported(ref, minsup); got != want {
		t.Fatalf("minsup %d: Report differs:\n%s\n%s", minsup, got, want)
	}
}

func reported(t *Tree, minsup int) string {
	var sb strings.Builder
	t.Report(minsup, func(s itemset.Set, supp int) { fmt.Fprintf(&sb, "%s:%d ", s.Key(), supp) })
	return sb.String()
}

// TestPruneMatchesReference: the fused pass leaves exactly the tree the
// in-place prune plus a compaction leaves (nodes, supports and steps in
// preorder), over random databases, weights, minsups and pass spacings,
// and later passes and the report still agree.
func TestPruneMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(116))
	for trial := 0; trial < 80; trial++ {
		items := 4 + rng.Intn(20)
		n := 6 + rng.Intn(40)
		db := randDB(rng, items, n, 0.15+rng.Float64()*0.5)
		weights := make([]int, n)
		total := 0
		for k := range weights {
			weights[k] = 1 + rng.Intn(3)
			total += weights[k]
		}
		minsup := 1 + rng.Intn(total/3+1)
		pre := prep.Prepare(db, minsup, prep.Config{Items: prep.OrderAscFreq, Trans: prep.OrderSizeAsc})
		// Recount remain under the random weights.
		remain := make([]int, pre.DB.NumItems())
		for k := 0; k < pre.DB.NumTx(); k++ {
			for _, i := range pre.DB.Tx(k) {
				remain[i] += weights[k]
			}
		}
		lockstep(t, pre.DB, weights[:pre.DB.NumTx()], remain, minsup, 1+rng.Intn(4))
	}
}

// TestPruneNodeItemBound is the regression case for the prune bound: the
// child of a scarce item must survive on its own item's remaining count
// and be lifted, not pruned with its ancestor.
func TestPruneNodeItemBound(t *testing.T) {
	tree := NewTree(2)
	tree.AddTransaction(itemset.FromInts(0, 1)) // path 1 → 0
	remain := []int{2, 0}                       // two more {0} follow
	tree.Prune(remain, 3)
	if got, want := dump(tree), "0:0/1/1 "; got != want {
		t.Fatalf("after prune: %s, want %s", got, want)
	}
	checkPreorder(t, tree)
	tree.AddTransaction(itemset.FromInts(0))
	tree.AddTransaction(itemset.FromInts(0))
	if got, want := reported(tree, 3), key(0)+":3 "; got != want {
		t.Fatalf("report = %s, want %s", got, want)
	}
}

// TestPruneLiftMergesEqualSibling: a pruned node's children are merged
// into an equal-item sibling further down the list, taking the maximum
// support and merging their child lists recursively.
func TestPruneLiftMergesEqualSibling(t *testing.T) {
	rows := [][]int{{0, 1, 3}, {0, 1, 2}, {0, 1, 2}}
	db := txdb.FromInts(rows...)
	txs := []itemset.Set{db.Tx(0), db.Tx(1), db.Tx(2)}
	build := func() *Tree {
		tree := NewTree(4)
		tree.AddTransaction(txs[0])
		tree.AddTransaction(txs[1])
		return tree
	}
	remain := []int{1, 1, 1, 0} // the third transaction follows
	// Before: 3(1) → 1(1) → 0(1); 2(1) → 1(1) → 0(1); 1(2) → 0(2).
	tree, ref := build(), build()
	tree.Prune(remain, 2)
	refPrune(ref, remain, 2)
	refCompact(ref)
	want := "0:2/2/1 1:1/2/1 2:0/2/1 0:1/1/2 1:0/1/2 "
	if got := dump(tree); got != want || dump(ref) != want {
		t.Fatalf("after prune: fused %s, reference %s, want %s", got, dump(ref), want)
	}
	if tree.NodeCount() != 5 || ref.NodeCount() != 5 {
		t.Fatalf("NodeCount = %d, reference %d, want 5", tree.NodeCount(), ref.NodeCount())
	}
	checkPreorder(t, tree)
	checkSigs(t, tree)
	tree.AddTransaction(txs[2])
	checkSigs(t, tree)
	oracle, err := naive.ClosedByTransactionSubsets(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	var got result.Set
	tree.Report(2, func(s itemset.Set, supp int) { got.Add(s.Clone(), supp) })
	if !got.Equal(oracle) {
		t.Fatalf("report after merge:\n%s", got.Diff(oracle, 10))
	}
}

// TestCompactOnlyWhenGrown: Compact after Prune is free, and a Compact
// after new nodes lays the tree out again.
func TestCompactOnlyWhenGrown(t *testing.T) {
	tree := NewTree(6)
	tree.AddTransaction(itemset.FromInts(0, 2, 4))
	tree.AddTransaction(itemset.FromInts(1, 2, 5))
	tree.Prune([]int{9, 9, 9, 9, 9, 9}, 2)
	blocks := tree.arena.blocks
	tree.Compact()
	if &tree.arena.blocks[0][0] != &blocks[0][0] {
		t.Fatal("Compact right after Prune copied the tree")
	}
	tree.AddTransaction(itemset.FromInts(0, 3, 5))
	before := dump(tree)
	tree.Compact()
	if &tree.arena.blocks[0][0] == &blocks[0][0] {
		t.Fatal("Compact after growth did not lay the tree out")
	}
	if dump(tree) != before {
		t.Fatalf("Compact changed the tree: %s, was %s", dump(tree), before)
	}
	checkPreorder(t, tree)
}

// TestMaintainMinSupportOneLargeTree: at minsup 1 the maintenance passes
// only lay the tree out; over a tree past the pass threshold the result
// still matches the oracle.
func TestMaintainMinSupportOneLargeTree(t *testing.T) {
	rng := rand.New(rand.NewSource(117))
	db := randDB(rng, 64, 18, 0.5)
	pre := prep.Prepare(db, 1, prep.Config{Items: prep.OrderAscFreq, Trans: prep.OrderSizeAsc})
	remain := append([]int(nil), pre.Freq...)
	tree := NewTree(pre.DB.NumItems())
	passes := 0
	for k := 0; k < pre.DB.NumTx(); k++ {
		tx := pre.DB.Tx(k)
		tree.AddTransaction(tx)
		for _, i := range tx {
			remain[i]--
		}
		laid := tree.laid
		tree.maintain(remain, 1)
		if tree.laid != laid {
			passes++
			checkPreorder(t, tree)
		}
	}
	if passes == 0 || tree.NodeCount() <= pruneMinNodes {
		t.Fatalf("%d passes over %d nodes: the tree never reached the pass threshold", passes, tree.NodeCount())
	}
	want, err := naive.ClosedByTransactionSubsets(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got result.Set
	tree.Report(1, func(s itemset.Set, supp int) { got.Add(pre.DecodeSet(s), supp) })
	if !got.Equal(want) {
		t.Fatalf("minsup 1 with %d passes:\n%s", passes, got.Diff(want, 10))
	}
}

// allocs returns the fewest bytes of three IsTa runs over db at minsup.
func allocs(t *testing.T, db *txdb.DB, minsup int) uint64 {
	t.Helper()
	best := uint64(1 << 62)
	for run := 0; run < 3; run++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := mine(db, minsup, nil, &result.Counter{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestMineAllocs pins IsTaAllocBudget: the bytes one IsTa run allocates
// over a fixed Figure 5 stand-in. The two recycled arenas stay far below
// it; a fresh arena per maintenance pass allocates several times over.
func TestMineAllocs(t *testing.T) {
	db := gendata.Yeast(0.1, 1)
	const minsup = 14
	best := allocs(t, db, minsup)
	t.Logf("ista: %d bytes on Yeast(0.1) at minsup %d (budget %d)", best, minsup, IsTaAllocBudget)
	if best > IsTaAllocBudget {
		t.Fatalf("ista allocated %d bytes, budget %d", best, IsTaAllocBudget)
	}
}

// TestMineSparseAllocs pins IsTaSparseAllocBudget: the bytes one IsTa run
// allocates over sparse baskets, where the depth-1 nodes get signatures.
// The signature tables grow in fixed blocks and are recycled with the
// arenas; a table grown by appending (2.5 MB), or a fresh one per
// maintenance pass (3.2 MB), allocates past the budget.
func TestMineSparseAllocs(t *testing.T) {
	db := gendata.Quest(gendata.QuestConfig{
		Items: 1000, Transactions: 2000, AvgLen: 10, Patterns: 200, AvgPatternLen: 4, Seed: 1,
	})
	const minsup = 3
	best := allocs(t, db, minsup)
	t.Logf("ista: %d bytes on Quest baskets at minsup %d (budget %d)", best, minsup, IsTaSparseAllocBudget)
	if best > IsTaSparseAllocBudget {
		t.Fatalf("ista allocated %d bytes, budget %d", best, IsTaSparseAllocBudget)
	}
}
