package carpenter

import (
	"math/rand"
	"testing"

	_ "repro/internal/core" // registers "ista", the cross-check reference
	"repro/internal/engine"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/naive"
	"repro/internal/prep"
	"repro/internal/result"
	"repro/internal/txdb"
)

// carpPrep is the preprocessing both Carpenter registrations declare.
var carpPrep = prep.Config{Items: prep.OrderAscFreq, Trans: prep.OrderSizeAsc}

// mine runs a Carpenter variant the way every caller does: through the
// engine.
func mine(db txdb.Source, v Variant, minsup int, done <-chan struct{}, rep result.Reporter) error {
	return engine.Run(db, v.String(), engine.Spec{MinSupport: minsup, Done: done}, rep)
}

// mineWith runs minePrepared directly with the knobs the engine does not
// expose: the §3.4 orders, item elimination and the repository layout.
func mineWith(db txdb.Source, minsup int, cfg prep.Config, v Variant, noElim, hashRepo bool, done <-chan struct{}, rep result.Reporter) error {
	return minePrepared(prep.Prepare(db, minsup, cfg), minsup, v, noElim, hashRepo, mining.NewControl(done), rep)
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

// TestMineMatchesOracle checks both variants, with and without item
// elimination, against the brute-force oracle.
func TestMineMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for trial := 0; trial < 120; trial++ {
		items := 2 + rng.Intn(10)
		n := 1 + rng.Intn(14)
		db := randDB(rng, items, n, 0.1+rng.Float64()*0.6)
		for _, minsup := range []int{1, 2, 3, n/2 + 1} {
			want, err := naive.ClosedByTransactionSubsets(db, minsup)
			if err != nil {
				t.Fatal(err)
			}
			for _, variant := range []Variant{Lists, Table} {
				for _, noElim := range []bool{false, true} {
					var got result.Set
					err := mineWith(db, minsup, carpPrep, variant, noElim, false, nil, got.Collect())
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(want) {
						t.Fatalf("%v elim=%v mismatch (minsup=%d db=%v):\n%s",
							variant, !noElim, minsup, db, got.Diff(want, 10))
					}
				}
			}
		}
	}
}

// TestVariantsMatchIsTaLarger cross-checks both Carpenter variants against
// IsTa on databases too large for the oracle.
func TestVariantsMatchIsTaLarger(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 6; trial++ {
		db := randDB(rng, 40+rng.Intn(40), 40+rng.Intn(60), 0.15+rng.Float64()*0.25)
		minsup := 2 + rng.Intn(6)
		var want result.Set
		if err := engine.Run(db, "ista", engine.Spec{MinSupport: minsup}, want.Collect()); err != nil {
			t.Fatal(err)
		}
		for _, variant := range []Variant{Lists, Table} {
			var got result.Set
			if err := mine(db, variant, minsup, nil, got.Collect()); err != nil {
				t.Fatal(err)
			}
			if !got.Equal(&want) {
				t.Fatalf("%v disagrees with IsTa (minsup=%d):\n%s", variant, minsup, got.Diff(&want, 10))
			}
		}
		if err := result.Verify(db, &want, minsup); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMineOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	for trial := 0; trial < 25; trial++ {
		db := randDB(rng, 2+rng.Intn(8), 2+rng.Intn(10), 0.2+rng.Float64()*0.5)
		minsup := 1 + rng.Intn(3)
		want, err := naive.ClosedByTransactionSubsets(db, minsup)
		if err != nil {
			t.Fatal(err)
		}
		for _, io := range []prep.ItemOrder{prep.OrderAscFreq, prep.OrderDescFreq, prep.OrderKeep} {
			for _, to := range []prep.TransOrder{prep.OrderSizeAsc, prep.OrderSizeDesc, prep.OrderOriginal} {
				var got result.Set
				err := mineWith(db, minsup, prep.Config{Items: io, Trans: to}, Table, false, false, nil, got.Collect())
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("(%v,%v) wrong result (minsup=%d db=%v):\n%s", io, to, minsup, db, got.Diff(want, 10))
				}
			}
		}
	}
}

func TestMineEdgeCases(t *testing.T) {
	var got result.Set
	empty := txdb.NewBuilder(0, 0)
	empty.SetNumItems(3)
	if err := mine(empty.Build(), Lists, 1, nil, got.Collect()); err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatal("empty db should yield nothing")
	}

	// minsup larger than n short-circuits.
	db := txdb.FromInts([]int{0, 1}, []int{0, 1})
	got = result.Set{}
	if err := mine(db, Lists, 3, nil, got.Collect()); err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatal("minsup > n should yield nothing")
	}

	// Duplicate transactions.
	got = result.Set{}
	if err := mine(db, Lists, 2, nil, got.Collect()); err != nil {
		t.Fatal(err)
	}
	var want result.Set
	want.Add(itemset.FromInts(0, 1), 2)
	if !got.Equal(&want) {
		t.Fatalf("duplicates: %s", got.Diff(&want, 5))
	}

	bad := txdb.NewBuilder(0, 0)
	bad.AddWeighted(itemset.Set{3, 1}, 1) // not canonical
	if err := mine(bad.Build(), Lists, 1, nil, &result.Counter{}); err == nil {
		t.Fatal("expected validation error")
	}
	wide := txdb.NewBuilder(0, 0)
	wide.AddInts(3)
	if err := mine(narrowed{wide.Build()}, Lists, 1, nil, &result.Counter{}); err == nil {
		t.Fatal("expected validation error for an item outside the universe")
	}
}

func TestMineCancel(t *testing.T) {
	done := make(chan struct{})
	close(done)
	db := randDB(rand.New(rand.NewSource(5)), 60, 120, 0.4)
	for _, v := range []Variant{Lists, Table} {
		err := mine(db, v, 2, done, &result.Counter{})
		if err != mining.ErrCanceled {
			t.Fatalf("%v: err = %v, want ErrCanceled", v, err)
		}
	}
}

func TestRepoTree(t *testing.T) {
	r := newRepoTree(10)
	sets := []itemset.Set{
		itemset.FromInts(1),
		itemset.FromInts(1, 2),
		itemset.FromInts(1, 2, 5),
		itemset.FromInts(0, 9),
		itemset.FromInts(2),
	}
	for i, s := range sets {
		if r.Contains(s) {
			t.Fatalf("set %v contained before insert", s)
		}
		r.Insert(s)
		if r.Len() != i+1 {
			t.Fatalf("Len = %d", r.Len())
		}
		if !r.Contains(s) {
			t.Fatalf("set %v missing after insert", s)
		}
	}
	// Prefixes of stored sets that were not inserted themselves.
	if r.Contains(itemset.FromInts(0)) {
		t.Error("{0} is a prefix, not a stored set")
	}
	if r.Contains(itemset.FromInts(1, 5)) {
		t.Error("{1,5} skips an item and was never stored")
	}
	// Re-insert does not double count.
	r.Insert(itemset.FromInts(1, 2))
	if r.Len() != len(sets) {
		t.Fatalf("Len after re-insert = %d", r.Len())
	}
}

func TestRepoTreeRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(207))
	for trial := 0; trial < 40; trial++ {
		r := newRepoTree(14)
		stored := map[string]bool{}
		for i := 0; i < 60; i++ {
			s := randNonEmptySet(rng, 14, 6)
			if rng.Intn(2) == 0 {
				r.Insert(s)
				stored[s.Key()] = true
			}
			if got, want := r.Contains(s), stored[s.Key()]; got != want {
				t.Fatalf("Contains(%v) = %v, want %v", s, got, want)
			}
		}
	}
}

func randNonEmptySet(rng *rand.Rand, universe, maxLen int) itemset.Set {
	for {
		n := 1 + rng.Intn(maxLen)
		items := make([]itemset.Item, n)
		for i := range items {
			items[i] = itemset.Item(rng.Intn(universe))
		}
		s := itemset.New(items...)
		if len(s) > 0 {
			return s
		}
	}
}

// narrowed reports a one-item universe, so the rows of a wider store hold
// items outside it; only a Source other than *txdb.DB can do that.
type narrowed struct{ *txdb.DB }

func (narrowed) NumItems() int { return 1 }
