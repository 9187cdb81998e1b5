package core

import (
	"testing"
	"unsafe"

	"repro/internal/itemset"
)

// flatten renders the tree as a map from the represented item set (its
// canonical Key) to its support, for structural assertions.
func flatten(t *Tree) map[string]int {
	out := map[string]int{}
	var walk func(list *node, path itemset.Set)
	walk = func(list *node, path itemset.Set) {
		for c := list; c != nil; c = c.sibling {
			p := append(path, c.item)
			rev := make(itemset.Set, len(p))
			for i, it := range p {
				rev[len(p)-1-i] = it
			}
			out[rev.Key()] = int(c.supp)
			walk(c.children, p)
		}
	}
	walk(t.children, nil)
	return out
}

func key(items ...int) string { return itemset.FromInts(items...).Key() }

// TestFigure3 replays the worked example of Fig. 3 in the paper, with
// items coded a=0, b=1, c=2, d=3, e=4, and checks the tree contents after
// every step.
func TestFigure3(t *testing.T) {
	tree := NewTree(5)

	// Step 1: transaction {e,c,a}.
	tree.AddTransaction(itemset.FromInts(4, 2, 0))
	want := map[string]int{
		key(4):       1, // e
		key(4, 2):    1, // e,c
		key(4, 2, 0): 1, // e,c,a
	}
	if got := flatten(tree); !mapsEqual(got, want) {
		t.Fatalf("after step 1: %v, want %v", got, want)
	}

	// Step 2: transaction {e,d,b}.
	tree.AddTransaction(itemset.FromInts(4, 3, 1))
	want = map[string]int{
		key(4):       2,
		key(4, 2):    1,
		key(4, 2, 0): 1,
		key(4, 3):    1,
		key(4, 3, 1): 1,
	}
	if got := flatten(tree); !mapsEqual(got, want) {
		t.Fatalf("after step 2: %v, want %v", got, want)
	}

	// Step 3: transaction {d,c,b,a}. Fig. 3.3: the transaction's own path
	// d→c→b→a at support 1, plus the intersections {d,b} (with {e,d,b})
	// and {c,a} (with {e,c,a}) at support 2, and d itself at support 2.
	tree.AddTransaction(itemset.FromInts(3, 2, 1, 0))
	want = map[string]int{
		key(4):          2,
		key(4, 2):       1,
		key(4, 2, 0):    1,
		key(4, 3):       1,
		key(4, 3, 1):    1,
		key(3):          2,
		key(3, 2):       1,
		key(3, 2, 1):    1,
		key(3, 2, 1, 0): 1,
		key(3, 1):       2,
		key(2):          2,
		key(2, 0):       2,
	}
	if got := flatten(tree); !mapsEqual(got, want) {
		t.Fatalf("after step 3: %v, want %v", got, want)
	}

	if tree.NodeCount() != len(want) {
		t.Fatalf("NodeCount = %d, want %d", tree.NodeCount(), len(want))
	}
	if tree.Step() != 3 {
		t.Fatalf("Step = %d", tree.Step())
	}

	// Report at minsup 1: closed sets of the three transactions. The sets
	// {e,c}, {e,d} etc. are interior, non-closed prefixes and must be
	// suppressed by the max-child check; {d}:2 has children {d,c}:1 and
	// {d,b}:2 — tied by {d,b}, so {d} is not closed and must be
	// suppressed too.
	got := map[string]int{}
	tree.Report(1, func(items itemset.Set, supp int) {
		got[items.Key()] = supp
	})
	wantClosed := map[string]int{
		key(4):          2, // {e}: t1 ∩ t2
		key(4, 2, 0):    1,
		key(4, 3, 1):    1,
		key(3, 2, 1, 0): 1,
		key(3, 1):       2,
		key(2, 0):       2,
	}
	if !mapsEqual(got, wantClosed) {
		t.Fatalf("report = %v, want %v", got, wantClosed)
	}

	// Report at minsup 2 keeps only the support-2 sets.
	got = map[string]int{}
	tree.Report(2, func(items itemset.Set, supp int) {
		got[items.Key()] = supp
	})
	wantClosed = map[string]int{
		key(4):    2,
		key(3, 1): 2,
		key(2, 0): 2,
	}
	if !mapsEqual(got, wantClosed) {
		t.Fatalf("report(2) = %v, want %v", got, wantClosed)
	}
}

func mapsEqual(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestEmptyTransactionOnlyAdvancesStep(t *testing.T) {
	tree := NewTree(3)
	tree.AddTransaction(itemset.Set{})
	if tree.NodeCount() != 0 || tree.Step() != 1 {
		t.Fatalf("nodes=%d step=%d", tree.NodeCount(), tree.Step())
	}
}

func TestDuplicateTransactions(t *testing.T) {
	tree := NewTree(3)
	tr := itemset.FromInts(0, 2)
	tree.AddTransaction(tr)
	tree.AddTransaction(tr)
	tree.AddTransaction(tr)
	got := map[string]int{}
	tree.Report(1, func(items itemset.Set, supp int) { got[items.Key()] = supp })
	want := map[string]int{key(0, 2): 3}
	if !mapsEqual(got, want) {
		t.Fatalf("report = %v, want %v", got, want)
	}
}

func TestArenaReuse(t *testing.T) {
	var a arena
	// Fill one block and part of a second with dirty nodes.
	total := arenaBlock + 10
	for i := 0; i < total; i++ {
		n := a.alloc()
		n.item, n.step, n.supp = 7, 3, 2
		n.sibling, n.children = n, n
	}
	if a.live != total {
		t.Fatalf("live = %d", a.live)
	}
	blocks := len(a.blocks)
	first, second := &a.blocks[0][0], &a.blocks[1][0]
	a.reset()
	if a.live != 0 {
		t.Fatalf("live after reset = %d", a.live)
	}
	for i := 0; i < total; i++ {
		n := a.alloc()
		switch {
		case i == 0 && n != first:
			t.Fatal("reset arena should hand out its first block again")
		case i == arenaBlock && n != second:
			t.Fatal("reset arena should hand out its second block again")
		case n.children != nil || n.step != 0 || *n != (node{}):
			t.Fatalf("recycled node %d not zeroed: %+v", i, *n)
		}
	}
	if len(a.blocks) != blocks || a.live != total {
		t.Fatalf("blocks = %d (want %d), live = %d", len(a.blocks), blocks, a.live)
	}
}

func TestArenaManyBlocks(t *testing.T) {
	var a arena
	seen := map[*node]bool{}
	for i := 0; i < 3*arenaBlock; i++ {
		n := a.alloc()
		if n == nil || seen[n] {
			t.Fatal("allocator handed out a nil or duplicate node")
		}
		seen[n] = true
		n.item = int32(i)
	}
	if a.live != 3*arenaBlock {
		t.Fatalf("live = %d", a.live)
	}
}

// TestNodeSize: the signature entry index sits in the padding after the
// three int32 fields, so a node stays 32 bytes, two to a cache line.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != 32 {
		t.Fatalf("node is %d bytes, want 32", got)
	}
}
