package fpgrowth

import (
	"math/rand"
	"testing"

	_ "repro/internal/core" // registers "ista", the cross-check reference
	"repro/internal/engine"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/result"
	"repro/internal/txdb"
)

// mine runs FP-growth the way every caller does: through the engine.
func mine(db txdb.Source, minsup int, target engine.Target, done <-chan struct{}, rep result.Reporter) error {
	return engine.Run(db, "fpclose", engine.Spec{MinSupport: minsup, Target: target, Done: done}, rep)
}

func randDB(rng *rand.Rand, items, n int, density float64) *txdb.DB {
	b := txdb.NewBuilder(n, 0)
	b.SetNumItems(items)
	for k := 0; k < n; k++ {
		var t itemset.Set
		for i := 0; i < items; i++ {
			if rng.Float64() < density {
				t = append(t, itemset.Item(i))
			}
		}
		b.AddSet(t)
	}
	return b.Build()
}

// bruteAllFrequent enumerates all frequent item sets directly.
func bruteAllFrequent(db *txdb.DB, minsup int) *result.Set {
	var out result.Set
	items := make(itemset.Set, 0, db.NumItems())
	for mask := 1; mask < 1<<uint(db.NumItems()); mask++ {
		items = items[:0]
		for i := 0; i < db.NumItems(); i++ {
			if mask&(1<<uint(i)) != 0 {
				items = append(items, itemset.Item(i))
			}
		}
		if supp := result.Support(db, items); supp >= minsup {
			out.Add(items, supp)
		}
	}
	return &out
}

func TestAllMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	for trial := 0; trial < 60; trial++ {
		items := 2 + rng.Intn(7)
		n := 1 + rng.Intn(10)
		db := randDB(rng, items, n, 0.2+rng.Float64()*0.5)
		for _, minsup := range []int{1, 2} {
			want := bruteAllFrequent(db, minsup)
			var got result.Set
			if err := mine(db, minsup, engine.All, nil, got.Collect()); err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("FP-growth(all) mismatch (minsup=%d db=%v):\n%s", minsup, db, got.Diff(want, 10))
			}
		}
	}
}

func TestClosedMatchesIsTaLarger(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for trial := 0; trial < 5; trial++ {
		db := randDB(rng, 30+rng.Intn(30), 60+rng.Intn(80), 0.1+rng.Float64()*0.2)
		minsup := 2 + rng.Intn(6)
		var want result.Set
		if err := engine.Run(db, "ista", engine.Spec{MinSupport: minsup}, want.Collect()); err != nil {
			t.Fatal(err)
		}
		var got result.Set
		if err := mine(db, minsup, engine.Closed, nil, got.Collect()); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(&want) {
			t.Fatalf("FP-close disagrees with IsTa (minsup=%d):\n%s", minsup, got.Diff(&want, 10))
		}
	}
}

func TestEdgeCases(t *testing.T) {
	var got result.Set
	empty := txdb.NewBuilder(0, 0)
	empty.SetNumItems(3)
	if err := mine(empty.Build(), 1, engine.Closed, nil, got.Collect()); err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatal("empty db")
	}

	db := txdb.FromInts([]int{0, 1, 2})
	got = result.Set{}
	if err := mine(db, 1, engine.Closed, nil, got.Collect()); err != nil {
		t.Fatal(err)
	}
	var want result.Set
	want.Add(itemset.FromInts(0, 1, 2), 1)
	if !got.Equal(&want) {
		t.Fatalf("single transaction closed: %s", got.Diff(&want, 5))
	}

	bad := txdb.NewBuilder(0, 0)
	bad.AddWeighted(itemset.Set{3, 1}, 1) // not canonical
	if err := mine(bad.Build(), 1, engine.Closed, nil, &result.Counter{}); err == nil {
		t.Fatal("expected validation error")
	}
	wide := txdb.NewBuilder(0, 0)
	wide.AddInts(3)
	if err := mine(narrowed{wide.Build()}, 1, engine.Closed, nil, &result.Counter{}); err == nil {
		t.Fatal("expected validation error for an item outside the universe")
	}
}

func TestCancel(t *testing.T) {
	done := make(chan struct{})
	close(done)
	db := randDB(rand.New(rand.NewSource(7)), 50, 200, 0.4)
	err := mine(db, 2, engine.Closed, done, &result.Counter{})
	if err != mining.ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestFPTreeStructure(t *testing.T) {
	// Two overlapping transactions must share a prefix path.
	tree := newFPTree(3)
	tree.insert([]int32{0, 1}, 1)
	tree.insert([]int32{0, 1, 2}, 1)
	tree.insert([]int32{1}, 1)
	if tree.counts[0] != 2 || tree.counts[1] != 3 || tree.counts[2] != 1 {
		t.Fatalf("counts = %v", tree.counts)
	}
	// Item 0 must have a single node with count 2.
	n := tree.heads[0]
	if n == nil || n.next != nil || n.count != 2 {
		t.Fatalf("item 0 chain wrong: %+v", n)
	}
	// Item 1 has two nodes: one under 0 (count 2), one under root (count 1).
	chain := 0
	for n := tree.heads[1]; n != nil; n = n.next {
		chain++
	}
	if chain != 2 {
		t.Fatalf("item 1 chain length = %d", chain)
	}
}

// narrowed reports a one-item universe, so the rows of a wider store hold
// items outside it; only a Source other than *txdb.DB can do that.
type narrowed struct{ *txdb.DB }

func (narrowed) NumItems() int { return 1 }
