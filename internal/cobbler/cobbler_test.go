package cobbler

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

// mine runs Cobbler the way every caller does: through the engine.
func mine(db txdb.Source, minsup int, done <-chan struct{}, rep result.Reporter) error {
	return engine.Run(db, "cobbler", engine.Spec{MinSupport: minsup, Done: done}, rep)
}

// mineWith runs minePrepared directly with a row-switch threshold, the
// knob the engine does not expose.
func mineWith(db txdb.Source, minsup, threshold int, rep result.Reporter) error {
	pre := prep.Prepare(db, minsup, prep.Config{Items: prep.OrderAscFreq, Trans: prep.OrderOriginal})
	return minePrepared(pre, minsup, threshold, mining.NewControl(nil), rep)
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
				err := mineWith(db, minsup, threshold, got.Collect())
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
		if err := engine.Run(db, "ista", engine.Spec{MinSupport: minsup}, want.Collect()); err != nil {
			t.Fatal(err)
		}
		var got result.Set
		if err := mine(db, minsup, nil, got.Collect()); err != nil {
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
		err := mineWith(db, 1, 4,
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
	if err := mine(empty.Build(), 1, nil, got.Collect()); err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatal("empty db")
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

	done := make(chan struct{})
	close(done)
	db := randDB(rand.New(rand.NewSource(17)), 50, 150, 0.4)
	err := mine(db, 2, done, &result.Counter{})
	if err != mining.ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestNestedRunCancels: the nested Carpenter run of a row switch runs
// under the Cobbler run's own control, so closing Done while it reports
// stops the run with ErrCanceled instead of letting the block finish.
// The whole 20-row database is below the row threshold, so all of the
// run is one nested Carpenter run.
func TestNestedRunCancels(t *testing.T) {
	defer mining.SetCheckInterval(1)()
	db := randDB(rand.New(rand.NewSource(704)), 30, 20, 0.5)
	done := make(chan struct{})
	reported := 0
	err := mine(db, 1, done, result.ReporterFunc(func(itemset.Set, int) {
		if reported == 0 {
			close(done)
		}
		reported++
	}))
	if err != mining.ErrCanceled {
		t.Fatalf("err = %v after %d patterns, want ErrCanceled", err, reported)
	}
}

// narrowed reports a one-item universe, so the rows of a wider store hold
// items outside it; only a Source other than *txdb.DB can do that.
type narrowed struct{ *txdb.DB }

func (narrowed) NumItems() int { return 1 }
