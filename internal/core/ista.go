package core

import (
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/prep"
	"repro/internal/result"
)

// IsTaAllocBudget is the checked-in budget, in bytes, for one engine run
// of "ista" over gendata.Yeast(0.1, 1) at minsup 14 (TestMineAllocs and
// its CI step enforce it): prep, two recycled node arenas and the report
// fit below it.
const IsTaAllocBudget = 3 << 20

// minePrepared is the IsTa core on an already preprocessed database.
// disablePruning turns off the item-elimination tree pruning of §3.2,
// which never changes the result, only time and memory.
func minePrepared(pre *prep.Prepared, minsup int, disablePruning bool, ctl *mining.Control, rep result.Reporter) error {
	pdb := pre.DB
	if pdb.NumItems() == 0 {
		return nil
	}

	// remain[i] = occurrences of item i in the not-yet-processed
	// transactions; it starts at the global frequencies and is decremented
	// as transactions are consumed (§3.2).
	var remain []int
	if !disablePruning {
		remain = append([]int(nil), pre.Freq...)
	}

	tree := NewTree(pdb.NumItems())
	// Poll cancellation and the node budget inside the intersection passes
	// too: a single pass over a large tree can both exceed the budget (the
	// pass creates the intersection nodes) and delay a timeout arbitrarily.
	tree.SetCancel(func() bool {
		return ctl.PollNodes(tree.NodeCount()) != nil || ctl.Canceled()
	})
	for k, n := 0, pdb.NumTx(); k < n; k++ {
		t := pdb.Tx(k)
		w := pdb.Weight(k)
		if err := ctl.Tick(); err != nil {
			return err
		}
		ctl.CountOps(1) // one cumulative intersection pass per transaction
		tree.AddWeighted(t, w)
		if tree.Aborted() {
			return ctl.Cause()
		}
		if err := ctl.PollNodes(tree.NodeCount()); err != nil {
			return err
		}
		if remain == nil {
			continue
		}
		for _, i := range t {
			remain[i] -= w
		}
		tree.Maintain(remain, minsup)
	}

	// The report pass polls the same cancellation probe as the
	// intersection passes (via SetCancel above): once the reporter records
	// an error the latched control makes the probe fire, so the traversal
	// aborts promptly instead of walking the rest of a large tree while
	// merely skipping emits.
	var err error
	tree.Report(minsup, func(items itemset.Set, support int) {
		if err != nil {
			return
		}
		if e := ctl.Tick(); e != nil {
			err = e
			return
		}
		rep.Report(pre.DecodeSet(items), support)
	})
	if err != nil {
		return err
	}
	if tree.Aborted() {
		return ctl.Cause()
	}
	return nil
}
