package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/naive"
	"repro/internal/prep"
	"repro/internal/result"
	"repro/internal/txdb"
)

// istaPrep is the preprocessing the "ista" registration declares.
var istaPrep = prep.Config{Items: prep.OrderAscFreq, Trans: prep.OrderSizeAsc}

// mine runs IsTa the way every caller does: through the engine.
func mine(db txdb.Source, minsup int, done <-chan struct{}, rep result.Reporter) error {
	return engine.Run(db, "ista", engine.Spec{MinSupport: minsup, Done: done}, rep)
}

// mineWith runs minePrepared directly with the knobs the engine does not
// expose: the §3.4 orders and the pruning switch.
func mineWith(db txdb.Source, minsup int, cfg prep.Config, disablePruning bool, done <-chan struct{}, rep result.Reporter) error {
	return minePrepared(prep.Prepare(db, minsup, cfg), minsup, disablePruning, mining.NewControl(done), rep)
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

// TestMineMatchesOracle is the central correctness test: IsTa must produce
// exactly the closed frequent item sets of the brute-force oracle on many
// randomized databases, for several support thresholds, with and without
// pruning.
func TestMineMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 150; trial++ {
		items := 2 + rng.Intn(10)
		n := 1 + rng.Intn(14)
		db := randDB(rng, items, n, 0.1+rng.Float64()*0.6)
		for _, minsup := range []int{1, 2, 3, n/2 + 1} {
			want, err := naive.ClosedByTransactionSubsets(db, minsup)
			if err != nil {
				t.Fatal(err)
			}
			for _, disablePrune := range []bool{false, true} {
				var got result.Set
				err := mineWith(db, minsup, istaPrep, disablePrune, nil, got.Collect())
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("IsTa mismatch (minsup=%d prune=%v db=%v):\n%s",
						minsup, !disablePrune, db, got.Diff(want, 10))
				}
			}
		}
	}
}

// TestMineOrderInvariance: the set of closed frequent item sets must not
// depend on the item coding or the transaction processing order (§3.4
// only affects speed).
func TestMineOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	itemOrders := []prep.ItemOrder{prep.OrderAscFreq, prep.OrderDescFreq, prep.OrderKeep}
	transOrders := []prep.TransOrder{prep.OrderSizeAsc, prep.OrderSizeDesc, prep.OrderOriginal}
	for trial := 0; trial < 40; trial++ {
		db := randDB(rng, 2+rng.Intn(9), 2+rng.Intn(12), 0.2+rng.Float64()*0.5)
		minsup := 1 + rng.Intn(3)
		var ref result.Set
		if err := mine(db, minsup, nil, ref.Collect()); err != nil {
			t.Fatal(err)
		}
		for _, io := range itemOrders {
			for _, to := range transOrders {
				var got result.Set
				err := mineWith(db, minsup, prep.Config{Items: io, Trans: to}, false, nil, got.Collect())
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(&ref) {
					t.Fatalf("order (%v,%v) changed the result (minsup=%d db=%v):\n%s",
						io, to, minsup, db, got.Diff(&ref, 10))
				}
			}
		}
	}
}

func TestMineEdgeCases(t *testing.T) {
	// Empty database.
	var got result.Set
	empty := txdb.NewBuilder(0, 0)
	empty.SetNumItems(4)
	if err := mine(empty.Build(), 1, nil, got.Collect()); err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("empty db: %d patterns", got.Len())
	}

	// Single transaction.
	got = result.Set{}
	db := txdb.FromInts([]int{1, 3, 5})
	if err := mine(db, 1, nil, got.Collect()); err != nil {
		t.Fatal(err)
	}
	var want result.Set
	want.Add(itemset.FromInts(1, 3, 5), 1)
	if !got.Equal(&want) {
		t.Fatalf("single transaction: %s", got.Diff(&want, 5))
	}

	// MinSupport above the transaction count.
	got = result.Set{}
	if err := mine(db, 2, nil, got.Collect()); err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatal("minsup > n must yield nothing")
	}

	// Identical item in every transaction.
	got = result.Set{}
	db = txdb.FromInts([]int{0, 1}, []int{0, 2}, []int{0})
	if err := mine(db, 3, nil, got.Collect()); err != nil {
		t.Fatal(err)
	}
	want = result.Set{}
	want.Add(itemset.FromInts(0), 3)
	if !got.Equal(&want) {
		t.Fatalf("common item: %s", got.Diff(&want, 5))
	}

	// Invalid database is rejected.
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

func TestMineReportsOriginalCodes(t *testing.T) {
	// Items 10 and 20 with gaps; recoding must be undone on report.
	db := txdb.FromInts(
		[]int{10, 20},
		[]int{10, 20},
		[]int{10},
	)
	var got result.Set
	if err := mine(db, 2, nil, got.Collect()); err != nil {
		t.Fatal(err)
	}
	var want result.Set
	want.Add(itemset.FromInts(10), 3)
	want.Add(itemset.FromInts(10, 20), 2)
	if !got.Equal(&want) {
		t.Fatalf("codes: %s", got.Diff(&want, 5))
	}
}

func TestMineCancel(t *testing.T) {
	done := make(chan struct{})
	close(done)
	db := randDB(rand.New(rand.NewSource(3)), 40, 600, 0.4)
	err := mine(db, 2, done, &result.Counter{})
	if err != mining.ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestPruneEquivalenceLarger drives pruning through its threshold on a
// database big enough that Prune actually runs, and cross-checks the two
// configurations against each other (the oracle would be too slow here).
func TestPruneEquivalenceLarger(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	db := randDB(rng, 60, 120, 0.25)
	for _, minsup := range []int{2, 5, 12, 30} {
		var with, without result.Set
		if err := mine(db, minsup, nil, with.Collect()); err != nil {
			t.Fatal(err)
		}
		if err := mineWith(db, minsup, istaPrep, true, nil, without.Collect()); err != nil {
			t.Fatal(err)
		}
		if !with.Equal(&without) {
			t.Fatalf("pruning changed results at minsup %d:\n%s", minsup, with.Diff(&without, 10))
		}
		if err := result.Verify(db, &with, minsup); err != nil {
			t.Fatalf("verification failed at minsup %d: %v", minsup, err)
		}
	}
}

// TestPruneDirect exercises Tree.Prune explicitly: after pruning with the
// true remaining counts, reporting must still produce exactly the closed
// frequent sets.
func TestPruneDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	for trial := 0; trial < 60; trial++ {
		items := 3 + rng.Intn(8)
		n := 4 + rng.Intn(12)
		db := randDB(rng, items, n, 0.2+rng.Float64()*0.5)
		minsup := 2 + rng.Intn(3)

		pre := prep.Prepare(db, minsup, prep.Config{Items: prep.OrderAscFreq, Trans: prep.OrderSizeAsc})
		remain := append([]int(nil), pre.Freq...)
		tree := NewTree(pre.DB.NumItems())
		for k := 0; k < pre.DB.NumTx(); k++ {
			tr := pre.DB.Tx(k)
			tree.AddTransaction(tr)
			for _, i := range tr {
				remain[i]--
			}
			tree.Prune(remain, minsup) // prune after every transaction: worst case
		}
		var got result.Set
		tree.Report(minsup, func(s itemset.Set, supp int) {
			got.Add(pre.DecodeSet(s), supp)
		})
		want, err := naive.ClosedByTransactionSubsets(db, minsup)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("aggressive pruning broke results (minsup=%d db=%v):\n%s",
				minsup, db, got.Diff(want, 10))
		}
	}
}

// TestCancelLatencyMidTransaction: cancellation must take effect even in
// the middle of one huge intersection pass (regression test for the
// harness stall where a single AddTransaction on an unpruned tree could
// not be interrupted).
func TestCancelLatencyMidTransaction(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	db := randDB(rng, 120, 300, 0.35)
	done := make(chan struct{})
	start := time.Now()
	time.AfterFunc(150*time.Millisecond, func() { close(done) })
	err := mineWith(db, 2, istaPrep, true, done, &result.Counter{})
	elapsed := time.Since(start)
	if err != mining.ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt abort", elapsed)
	}
}

// narrowed reports a one-item universe, so the rows of a wider store hold
// items outside it; only a Source other than *txdb.DB can do that.
type narrowed struct{ *txdb.DB }

func (narrowed) NumItems() int { return 1 }
