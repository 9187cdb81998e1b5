package naive

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/result"
	"repro/internal/txdb"
)

// mineFlat runs the flat scheme the way every caller does: through the
// engine.
func mineFlat(db txdb.Source, minsup int, done <-chan struct{}, rep result.Reporter) error {
	return engine.Run(db, "flat", engine.Spec{MinSupport: minsup, Done: done}, rep)
}

func paperDB() *txdb.DB {
	return txdb.FromInts(
		[]int{0, 1, 2},
		[]int{0, 3, 4},
		[]int{1, 2, 3},
		[]int{0, 1, 2, 3},
		[]int{1, 2},
		[]int{0, 1, 3},
		[]int{3, 4},
		[]int{2, 3, 4},
	)
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

// TestOraclesAgree cross-checks the two independent brute-force oracles on
// many random databases — if they agree, either both are right or both
// share a bug, and they share no code paths beyond the set algebra.
func TestOraclesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 120; trial++ {
		items := 2 + rng.Intn(8)
		n := 1 + rng.Intn(10)
		db := randDB(rng, items, n, 0.2+rng.Float64()*0.5)
		for _, minsup := range []int{1, 2, n/2 + 1} {
			a, err := ClosedByTransactionSubsets(db, minsup)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ClosedByItemSubsets(db, minsup)
			if err != nil {
				t.Fatal(err)
			}
			if !a.Equal(b) {
				t.Fatalf("oracles disagree (minsup=%d, db=%v):\n%s", minsup, db, a.Diff(b, 10))
			}
			if err := result.Verify(db, a, minsup); err != nil {
				t.Fatalf("oracle output fails verification: %v", err)
			}
		}
	}
}

func TestOraclePaperExample(t *testing.T) {
	db := paperDB()
	got, err := ClosedByTransactionSubsets(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-derived closed frequent item sets for the Table 1 database at
	// minsup 3 (a=0,b=1,c=2,d=3,e=4):
	// {a}:4 {b}:5 {c}:5 {d}:6; {e} occurs in t2,t7,t8 whose intersection
	// is {d,e}, so {e} is NOT closed but {d,e}:3 is. {a,b}:3 (t1,t4,t6),
	// {b,c}:4 (t1,t3,t4,t5), {c,d}:3 (t3,t4,t8), {b,d}:3 (t3,t4,t6),
	// {a,d}:3 (t2,t4,t6 → intersection exactly {a,d}).
	var want result.Set
	want.Add(itemset.FromInts(0), 4)
	want.Add(itemset.FromInts(1), 5)
	want.Add(itemset.FromInts(2), 5)
	want.Add(itemset.FromInts(3), 6)
	want.Add(itemset.FromInts(0, 1), 3)
	want.Add(itemset.FromInts(1, 2), 4)
	want.Add(itemset.FromInts(2, 3), 3)
	want.Add(itemset.FromInts(3, 4), 3)
	want.Add(itemset.FromInts(1, 3), 3)
	want.Add(itemset.FromInts(0, 3), 3)
	if !got.Equal(&want) {
		t.Fatalf("paper example mismatch:\n%s", got.Diff(&want, 20))
	}
}

func TestOracleLimits(t *testing.T) {
	big := randDB(rand.New(rand.NewSource(1)), 25, 25, 0.3)
	if _, err := ClosedByTransactionSubsets(big, 1); err == nil {
		t.Error("expected transaction-count limit error")
	}
	if _, err := ClosedByItemSubsets(big, 1); err == nil {
		t.Error("expected item-count limit error")
	}
}

func TestFlatCumulativeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		items := 2 + rng.Intn(9)
		n := 1 + rng.Intn(12)
		db := randDB(rng, items, n, 0.15+rng.Float64()*0.5)
		for _, minsup := range []int{1, 2, 3} {
			want, err := ClosedByTransactionSubsets(db, minsup)
			if err != nil {
				t.Fatal(err)
			}
			var got result.Set
			if err := mineFlat(db, minsup, nil, got.Collect()); err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("flat cumulative mismatch (minsup=%d, db=%v):\n%s",
					minsup, db, got.Diff(want, 10))
			}
		}
	}
}

func TestFlatCumulativeEmptyAndDuplicates(t *testing.T) {
	// Empty database.
	var got result.Set
	empty := txdb.NewBuilder(0, 0)
	empty.SetNumItems(3)
	if err := mineFlat(empty.Build(), 1, nil, got.Collect()); err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("empty db produced %d patterns", got.Len())
	}
	// Duplicate transactions count individually.
	db := txdb.FromInts([]int{0, 1}, []int{0, 1}, []int{0, 1})
	got = result.Set{}
	if err := mineFlat(db, 3, nil, got.Collect()); err != nil {
		t.Fatal(err)
	}
	var want result.Set
	want.Add(itemset.FromInts(0, 1), 3)
	if !got.Equal(&want) {
		t.Fatalf("duplicates: %s", got.Diff(&want, 5))
	}
}

func TestFlatCumulativeCancel(t *testing.T) {
	done := make(chan struct{})
	close(done)
	// Large enough that the run performs well over one tick interval of
	// repository work before it could finish.
	db := randDB(rand.New(rand.NewSource(2)), 26, 80, 0.5)
	var got result.Set
	err := mineFlat(db, 1, done, got.Collect())
	if err != mining.ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestFlatCumulativeInvalidDB(t *testing.T) {
	bad := txdb.NewBuilder(0, 0)
	bad.AddWeighted(itemset.Set{5, 1}, 1) // not canonical
	if err := mineFlat(bad.Build(), 1, nil, &result.Counter{}); err == nil {
		t.Fatal("expected validation error")
	}
	wide := txdb.NewBuilder(0, 0)
	wide.AddInts(5)
	if err := mineFlat(narrowed{wide.Build()}, 1, nil, &result.Counter{}); err == nil {
		t.Fatal("expected validation error for an item outside the universe")
	}
}

func TestControlNilSafe(t *testing.T) {
	var c *mining.Control
	if err := c.Tick(); err != nil {
		t.Fatal("nil control must not cancel")
	}
	if c.Canceled() {
		t.Fatal("nil control must not be canceled")
	}
	c2 := mining.NewControl(nil)
	for i := 0; i < 10000; i++ {
		if err := c2.Tick(); err != nil {
			t.Fatal("nil-done control must not cancel")
		}
	}
}

func TestControlCancels(t *testing.T) {
	done := make(chan struct{})
	c := mining.NewControl(done)
	for i := 0; i < 5000; i++ {
		if err := c.Tick(); err != nil {
			t.Fatal("should not cancel before done closes")
		}
	}
	close(done)
	canceled := false
	for i := 0; i < 5000; i++ {
		if err := c.Tick(); err == mining.ErrCanceled {
			canceled = true
			break
		}
	}
	if !canceled {
		t.Fatal("control never reported cancellation")
	}
	if !c.Canceled() {
		t.Fatal("Canceled() should be true")
	}
}

// narrowed reports a one-item universe, so the rows of a wider store hold
// items outside it; only a Source other than *txdb.DB can do that.
type narrowed struct{ *txdb.DB }

func (narrowed) NumItems() int { return 1 }
