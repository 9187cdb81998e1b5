package lcm

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

// mine runs LCM the way every caller does: through the engine.
func mine(db txdb.Source, minsup int, done <-chan struct{}, rep result.Reporter) error {
	return engine.Run(db, "lcm", engine.Spec{MinSupport: minsup, Done: done}, rep)
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

// TestNoDuplicates: ppc-extension must emit every closed set exactly once
// even without any dedup structure — count raw reports.
func TestNoDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	for trial := 0; trial < 40; trial++ {
		db := randDB(rng, 3+rng.Intn(8), 3+rng.Intn(12), 0.3+rng.Float64()*0.4)
		seen := map[string]bool{}
		dup := false
		err := mine(db, 1, nil, result.ReporterFunc(func(s itemset.Set, _ int) {
			if seen[s.Key()] {
				dup = true
			}
			seen[s.Key()] = true
		}))
		if err != nil {
			t.Fatal(err)
		}
		if dup {
			t.Fatalf("duplicate closed set emitted for db %v", db)
		}
	}
}

func TestMatchesIsTaLarger(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	for trial := 0; trial < 5; trial++ {
		db := randDB(rng, 25+rng.Intn(25), 50+rng.Intn(60), 0.1+rng.Float64()*0.2)
		minsup := 2 + rng.Intn(5)
		var want result.Set
		if err := engine.Run(db, "ista", engine.Spec{MinSupport: minsup}, want.Collect()); err != nil {
			t.Fatal(err)
		}
		var got result.Set
		if err := mine(db, minsup, nil, got.Collect()); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(&want) {
			t.Fatalf("LCM disagrees with IsTa (minsup=%d):\n%s", minsup, got.Diff(&want, 10))
		}
	}
}

func TestEdgeCases(t *testing.T) {
	var got result.Set
	empty := txdb.NewBuilder(0, 0)
	empty.SetNumItems(2)
	if err := mine(empty.Build(), 1, nil, got.Collect()); err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatal("empty db")
	}

	// A database where the root closure is non-empty (item in every
	// transaction).
	db := txdb.FromInts([]int{0, 1}, []int{0, 2}, []int{0})
	got = result.Set{}
	if err := mine(db, 3, nil, got.Collect()); err != nil {
		t.Fatal(err)
	}
	var want result.Set
	want.Add(itemset.FromInts(0), 3)
	if !got.Equal(&want) {
		t.Fatalf("root closure: %s", got.Diff(&want, 5))
	}

	bad := txdb.NewBuilder(0, 0)
	bad.AddWeighted(itemset.Set{3, 1}, 1) // not canonical
	if err := mine(bad.Build(), 1, nil, &result.Counter{}); err == nil {
		t.Fatal("expected validation error")
	}
	wide := txdb.NewBuilder(0, 0)
	wide.AddInts(3)
	if err := mine(narrowed{wide.Build()}, 1, nil, &result.Counter{}); err == nil {
		t.Fatal("expected validation error for an item outside the universe")
	}
}

func TestCancel(t *testing.T) {
	done := make(chan struct{})
	close(done)
	db := randDB(rand.New(rand.NewSource(9)), 50, 200, 0.4)
	err := mine(db, 2, done, &result.Counter{})
	if err != mining.ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestPrefixPreserved(t *testing.T) {
	tests := []struct {
		p, q itemset.Set
		i    itemset.Item
		want bool
	}{
		{itemset.FromInts(), itemset.FromInts(3), 3, true},
		{itemset.FromInts(), itemset.FromInts(1, 3), 3, false}, // adds 1 < 3
		{itemset.FromInts(1), itemset.FromInts(1, 3), 3, true},
		{itemset.FromInts(1), itemset.FromInts(2, 3), 3, false},
		{itemset.FromInts(1, 5), itemset.FromInts(1, 3, 5), 3, true},
		{itemset.FromInts(0, 1), itemset.FromInts(0, 1, 2, 9), 2, true},
		{itemset.FromInts(0, 1), itemset.FromInts(0, 2, 9), 2, false},
	}
	for _, tc := range tests {
		if got := prefixPreserved(tc.p, tc.q, tc.i); got != tc.want {
			t.Errorf("prefixPreserved(%v, %v, %d) = %v, want %v", tc.p, tc.q, tc.i, got, tc.want)
		}
	}
}

// narrowed reports a one-item universe, so the rows of a wider store hold
// items outside it; only a Source other than *txdb.DB can do that.
type narrowed struct{ *txdb.DB }

func (narrowed) NumItems() int { return 1 }
