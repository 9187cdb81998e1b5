package sam

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/result"
	"repro/internal/txdb"
)

// mine runs SaM the way every caller does: through the engine.
func mine(db txdb.Source, minsup int, target engine.Target, done <-chan struct{}, rep result.Reporter) error {
	return engine.Run(db, "sam", engine.Spec{MinSupport: minsup, Target: target, Done: done}, rep)
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
	rng := rand.New(rand.NewSource(801))
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
				t.Fatalf("SaM(all) mismatch (minsup=%d db=%v):\n%s", minsup, db, got.Diff(want, 10))
			}
		}
	}
}

func TestDuplicateTransactionsCollapse(t *testing.T) {
	db := txdb.FromInts([]int{0, 1}, []int{0, 1}, []int{0, 1}, []int{1})
	var got result.Set
	if err := mine(db, 3, engine.All, nil, got.Collect()); err != nil {
		t.Fatal(err)
	}
	var want result.Set
	want.Add(itemset.FromInts(0), 3)
	want.Add(itemset.FromInts(1), 4)
	want.Add(itemset.FromInts(0, 1), 3)
	if !got.Equal(&want) {
		t.Fatalf("weights: %s", got.Diff(&want, 5))
	}
}

func TestMergeAndCollapse(t *testing.T) {
	a := []wtrans{{w: 1, items: itemset.FromInts(1)}, {w: 2, items: itemset.FromInts(1, 2)}}
	b := []wtrans{{w: 3, items: itemset.FromInts(1, 2)}, {w: 1, items: itemset.FromInts(2)}}
	out := merge(a, b)
	if len(out) != 3 {
		t.Fatalf("merge length = %d", len(out))
	}
	if out[1].w != 5 || !out[1].items.Equal(itemset.FromInts(1, 2)) {
		t.Fatalf("merged weights wrong: %+v", out)
	}
	c := collapse([]wtrans{
		{w: 1, items: itemset.FromInts(3)},
		{w: 2, items: itemset.FromInts(3)},
		{w: 1, items: itemset.FromInts(4)},
	})
	if len(c) != 2 || c[0].w != 3 {
		t.Fatalf("collapse wrong: %+v", c)
	}
}

func TestEdgeCasesAndCancel(t *testing.T) {
	var got result.Set
	empty := txdb.NewBuilder(0, 0)
	empty.SetNumItems(2)
	if err := mine(empty.Build(), 1, engine.Closed, nil, got.Collect()); err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatal("empty db")
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

	done := make(chan struct{})
	close(done)
	db := randDB(rand.New(rand.NewSource(19)), 30, 80, 0.5)
	err := mine(db, 2, engine.Closed, done, &result.Counter{})
	if err != mining.ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// narrowed reports a one-item universe, so the rows of a wider store hold
// items outside it; only a Source other than *txdb.DB can do that.
type narrowed struct{ *txdb.DB }

func (narrowed) NumItems() int { return 1 }
