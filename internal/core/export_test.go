package core

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/itemset"
)

// randomStream builds a reproducible transaction stream.
func randomStream(items, n int, seed int64) []itemset.Set {
	rng := rand.New(rand.NewSource(seed))
	out := make([]itemset.Set, n)
	for i := range out {
		k := rng.Intn(6)
		t := make([]itemset.Item, k)
		for j := range t {
			t[j] = itemset.Item(rng.Intn(items))
		}
		out[i] = itemset.New(t...)
	}
	return out
}

// TestExportRebuildRoundTrip grows a tree, exports it, rebuilds it with
// the builder and checks the rebuilt miner is indistinguishable: same
// step, node count, and closed sets at every support level.
func TestExportRebuildRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 5, 60} {
		m := NewIncremental(12)
		for _, tr := range randomStream(12, n, int64(n)+1) {
			if err := m.AddSet(tr); err != nil {
				t.Fatal(err)
			}
		}
		b, err := NewTreeBuilder(m.Items(), m.Transactions())
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Tree().Export(b.Add); err != nil {
			t.Fatalf("n=%d: export: %v", n, err)
		}
		if b.Nodes() != m.NodeCount() {
			t.Fatalf("n=%d: exported %d nodes, tree has %d", n, b.Nodes(), m.NodeCount())
		}
		tree, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		got := RestoreIncremental(tree)
		if got.Transactions() != m.Transactions() || got.NodeCount() != m.NodeCount() || got.Items() != m.Items() {
			t.Fatalf("n=%d: rebuilt state differs: %d/%d trans, %d/%d nodes",
				n, got.Transactions(), m.Transactions(), got.NodeCount(), m.NodeCount())
		}
		for minsup := 1; minsup <= n+1; minsup++ {
			want, have := m.ClosedSet(minsup), got.ClosedSet(minsup)
			if !have.Equal(want) {
				t.Fatalf("n=%d minsup=%d: rebuilt sets differ:\n%s", n, minsup, have.Diff(want, 10))
			}
		}
	}
}

// TestRebuildContinues checks that a rebuilt tree keeps mining
// correctly: adding the tail of a stream to a tree rebuilt mid-stream
// matches mining the whole stream in one go.
func TestRebuildContinues(t *testing.T) {
	stream := randomStream(10, 40, 7)
	whole := NewIncremental(10)
	half := NewIncremental(10)
	for i, tr := range stream {
		if err := whole.AddSet(tr); err != nil {
			t.Fatal(err)
		}
		if i < 20 {
			if err := half.AddSet(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	b, err := NewTreeBuilder(half.Items(), half.Transactions())
	if err != nil {
		t.Fatal(err)
	}
	if err := half.Tree().Export(b.Add); err != nil {
		t.Fatal(err)
	}
	tree, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	resumed := RestoreIncremental(tree)
	for _, tr := range stream[20:] {
		if err := resumed.AddSet(tr); err != nil {
			t.Fatal(err)
		}
	}
	for _, minsup := range []int{1, 2, 5, 40} {
		want, have := whole.ClosedSet(minsup), resumed.ClosedSet(minsup)
		if !have.Equal(want) {
			t.Fatalf("minsup=%d: resumed mining diverged:\n%s", minsup, have.Diff(want, 10))
		}
	}
}

// TestBuilderRejectsInvalid pins the builder's validation: structurally
// impossible streams fail instead of producing a corrupt tree.
func TestBuilderRejectsInvalid(t *testing.T) {
	cases := []struct {
		name string
		recs []NodeRecord
	}{
		{"depth jump", []NodeRecord{{Depth: 1, Item: 0, Step: 1, Supp: 1}}},
		{"negative depth", []NodeRecord{{Depth: -1, Item: 0, Step: 1, Supp: 1}}},
		{"item outside universe", []NodeRecord{{Depth: 0, Item: 8, Step: 1, Supp: 1}}},
		{"negative item", []NodeRecord{{Depth: 0, Item: -1, Step: 1, Supp: 1}}},
		{"step beyond counter", []NodeRecord{{Depth: 0, Item: 1, Step: 9, Supp: 1}}},
		{"negative support", []NodeRecord{{Depth: 0, Item: 1, Step: 1, Supp: -2}}},
		{"ascending siblings", []NodeRecord{
			{Depth: 0, Item: 1, Step: 1, Supp: 1},
			{Depth: 0, Item: 2, Step: 1, Supp: 1},
		}},
		{"equal siblings", []NodeRecord{
			{Depth: 0, Item: 1, Step: 1, Supp: 1},
			{Depth: 0, Item: 1, Step: 1, Supp: 1},
		}},
		{"child not below parent", []NodeRecord{
			{Depth: 0, Item: 2, Step: 1, Supp: 1},
			{Depth: 1, Item: 3, Step: 1, Supp: 1},
		}},
	}
	for _, tc := range cases {
		b, err := NewTreeBuilder(8, 3)
		if err != nil {
			t.Fatal(err)
		}
		failed := false
		for _, r := range tc.recs {
			if err := b.Add(r); err != nil {
				failed = true
				break
			}
		}
		if !failed {
			t.Errorf("%s: builder accepted an invalid stream", tc.name)
		}
	}
}

// TestTreeBytesPerItem: a tree over a large declared universe costs at
// most 16 bytes per item, empty or finished by a TreeBuilder: the
// membership flags and the root index are per item, the signatures only
// per node that has one (internal/persist accepts universes up to
// MaxItems).
func TestTreeBytesPerItem(t *testing.T) {
	const items = 1 << 22
	perItem := func(build func() *Tree) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		tree := build()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(tree)
		return float64(after.TotalAlloc-before.TotalAlloc) / items
	}
	if got := perItem(func() *Tree { return NewTree(items) }); got > 16 {
		t.Fatalf("NewTree: %.1f bytes per item, want at most 16", got)
	}
	got := perItem(func() *Tree {
		b, err := NewTreeBuilder(items, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []NodeRecord{{0, items - 1, 1, 2}, {1, 7, 1, 2}, {2, 3, 1, 2}, {0, 5, 3, 1}} {
			if err := b.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		tree, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return tree
	})
	if got > 16 {
		t.Fatalf("TreeBuilder: %.1f bytes per item, want at most 16", got)
	}
}
