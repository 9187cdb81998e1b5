package cobbler

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/naive"
	"repro/internal/result"
	"repro/internal/txdb"
)

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

// TestMatchesOracleAcrossThresholds checks correctness for every switching
// regime: pure column enumeration (threshold < 0), mixed, and pure row
// enumeration (threshold ≥ n).
func TestMatchesOracleAcrossThresholds(t *testing.T) {
	rng := rand.New(rand.NewSource(701))
	for trial := 0; trial < 80; trial++ {
		items := 2 + rng.Intn(10)
		n := 1 + rng.Intn(14)
		db := randDB(rng, items, n, 0.1+rng.Float64()*0.6)
		for _, minsup := range []int{1, 2, 3} {
			want, err := naive.ClosedByTransactionSubsets(db, minsup)
			if err != nil {
				t.Fatal(err)
			}
			for _, threshold := range []int{-1, 2, 5, n, 100} {
				var got result.Set
				err := Mine(db, Options{MinSupport: minsup, RowThreshold: threshold}, got.Collect())
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("cobbler mismatch (minsup=%d threshold=%d db=%v):\n%s",
						minsup, threshold, db, got.Diff(want, 10))
				}
			}
		}
	}
}

func TestMatchesIsTaLarger(t *testing.T) {
	rng := rand.New(rand.NewSource(702))
	for trial := 0; trial < 4; trial++ {
		db := randDB(rng, 30+rng.Intn(30), 50+rng.Intn(60), 0.1+rng.Float64()*0.2)
		minsup := 2 + rng.Intn(5)
		var want result.Set
		if err := core.Mine(db, core.Options{MinSupport: minsup}, want.Collect()); err != nil {
			t.Fatal(err)
		}
		var got result.Set
		if err := Mine(db, Options{MinSupport: minsup}, got.Collect()); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(&want) {
			t.Fatalf("cobbler disagrees with IsTa (minsup=%d):\n%s", minsup, got.Diff(&want, 10))
		}
	}
}

func TestNoDuplicateReports(t *testing.T) {
	rng := rand.New(rand.NewSource(703))
	for trial := 0; trial < 30; trial++ {
		db := randDB(rng, 3+rng.Intn(8), 4+rng.Intn(10), 0.3+rng.Float64()*0.4)
		seen := map[string]bool{}
		dup := false
		err := Mine(db, Options{MinSupport: 1, RowThreshold: 4},
			result.ReporterFunc(func(s itemset.Set, _ int) {
				if seen[s.Key()] {
					dup = true
				}
				seen[s.Key()] = true
			}))
		if err != nil {
			t.Fatal(err)
		}
		if dup {
			t.Fatalf("duplicate closed set reported for db %v", db)
		}
	}
}

func TestEdgeCasesAndCancel(t *testing.T) {
	var got result.Set
	empty := txdb.NewBuilder(0, 0)
	empty.SetNumItems(3)
	if err := Mine(empty.Build(), Options{MinSupport: 1}, got.Collect()); err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatal("empty db")
	}

	bad := txdb.NewBuilder(0, 0)
	bad.AddWeighted(itemset.Set{3, 1}, 1) // not canonical
	if err := Mine(bad.Build(), Options{MinSupport: 1}, &result.Counter{}); err == nil {
		t.Fatal("expected validation error")
	}
	wide := txdb.NewBuilder(0, 0)
	wide.AddInts(3)
	if err := Mine(narrowed{wide.Build()}, Options{MinSupport: 1}, &result.Counter{}); err == nil {
		t.Fatal("expected validation error for an item outside the universe")
	}

	done := make(chan struct{})
	close(done)
	db := randDB(rand.New(rand.NewSource(17)), 50, 150, 0.4)
	err := Mine(db, Options{MinSupport: 2, Done: done}, &result.Counter{})
	if err != mining.ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// narrowed reports a one-item universe, so the rows of a wider store hold
// items outside it; only a Source other than *txdb.DB can do that.
type narrowed struct{ *txdb.DB }

func (narrowed) NumItems() int { return 1 }
