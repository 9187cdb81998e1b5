package core

import (
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/prep"
	"repro/internal/result"
	"repro/internal/txdb"
)

// IsTaAllocBudget is the checked-in budget, in bytes, for one engine run
// of "ista" over gendata.Yeast(0.1, 1) at minsup 14 (TestMineAllocs and
// its CI step enforce it): prep, two recycled node arenas and the report
// fit below it.
const IsTaAllocBudget = 3 << 20

// IsTaSparseAllocBudget is the checked-in budget, in bytes, for one engine
// run of "ista" over 2 000 Quest baskets (1 000 items, rows of 10 items on
// average, 200 patterns) at minsup 3 (TestMineSparseAllocs and its CI step
// enforce it). Its rows are sparse, so the depth-1 nodes get signatures:
// both signature tables, grown in fixed blocks and recycled like the
// arenas, fit below it with the arenas and the report (1.8 MB); a table
// grown by appending, or a fresh one per maintenance pass, does not.
const IsTaSparseAllocBudget = 2 << 20

// Intersect is IsTa's pass loop (§3.2), the one every IsTa engine runs:
// it intersects the rows of db, in order and at their weights, into a
// fresh prefix tree. With prune set, remain[i] holds the weight of item i
// in the rows not yet processed (seeded from db.ItemFreqs()) and drives
// the item-elimination maintenance at minsup after every row; pruning
// never changes what the tree reports at minsup, only time and memory.
// ctl is ticked and charged one op per row, and its node budget and
// cancellation are polled inside every pass too: a single pass over a
// large tree can both exceed the budget (the pass creates the
// intersection nodes) and delay a timeout arbitrarily. The returned
// tree keeps that probe installed for the caller's report pass.
func Intersect(db *txdb.DB, minsup int, prune bool, ctl *mining.Control) (*Tree, error) {
	tree := NewTree(db.NumItems())
	tree.SetCancel(func() bool {
		return ctl.PollNodes(tree.NodeCount()) != nil || ctl.Canceled()
	})
	var remain []int
	if prune {
		remain = append([]int(nil), db.ItemFreqs()...)
	}
	for k, n := 0, db.NumTx(); k < n; k++ {
		t, w := db.Tx(k), db.Weight(k)
		if err := ctl.Tick(); err != nil {
			return nil, err
		}
		ctl.CountOps(1) // one cumulative intersection pass per row
		tree.AddWeighted(t, w)
		if tree.Aborted() {
			return nil, ctl.Cause()
		}
		if err := ctl.PollNodes(tree.NodeCount()); err != nil {
			return nil, err
		}
		if remain == nil {
			continue
		}
		for _, i := range t {
			remain[i] -= w
		}
		tree.maintain(remain, minsup)
	}
	return tree, nil
}

// minePrepared is the IsTa core on an already preprocessed database.
// disablePruning turns off the item-elimination tree pruning of §3.2.
func minePrepared(pre *prep.Prepared, minsup int, disablePruning bool, ctl *mining.Control, rep result.Reporter) error {
	tree, err := Intersect(pre.DB, minsup, !disablePruning, ctl)
	if err != nil {
		return err
	}
	// The report pass polls the same cancellation probe as the
	// intersection passes: once the reporter records an error the latched
	// control makes the probe fire, so the traversal aborts promptly
	// instead of walking the rest of a large tree while merely skipping
	// emits.
	tree.Report(minsup, func(items itemset.Set, support int) {
		if err != nil {
			return
		}
		if err = ctl.Tick(); err == nil {
			rep.Report(pre.DecodeSet(items), support)
		}
	})
	if err != nil {
		return err
	}
	if tree.Aborted() {
		return ctl.Cause()
	}
	return nil
}
