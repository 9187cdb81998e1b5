package core

import (
	"repro/internal/guard"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/prep"
	"repro/internal/result"
	"repro/internal/txdb"
)

// Options configures the IsTa miner. The zero value requests the paper's
// recommended configuration: items coded by ascending frequency,
// transactions processed by increasing size, pruning enabled.
type Options struct {
	// MinSupport is the absolute minimum support; values < 1 act as 1.
	MinSupport int
	// ItemOrder selects the item coding (§3.4; default ascending
	// frequency — the rarest item gets code 0).
	ItemOrder prep.ItemOrder
	// TransOrder selects the transaction processing order (§3.4; default
	// increasing size).
	TransOrder prep.TransOrder
	// DisablePruning turns off the item-elimination tree pruning of §3.2.
	// Pruning never changes the result, only time and memory.
	DisablePruning bool
	// Done optionally cancels the run; Mine then returns
	// mining.ErrCanceled.
	Done <-chan struct{}
	// Guard optionally bounds the run (deadline, pattern and tree-node
	// budgets); Mine then returns the guard's typed error once a bound
	// trips. May be nil.
	Guard *guard.Guard
}

// IsTaAllocBudget is the checked-in budget, in bytes, for one Mine run
// over gendata.Yeast(0.1, 1) at minsup 14 (TestMineAllocs and its CI step
// enforce it): prep, two recycled node arenas and the report fit below it.
const IsTaAllocBudget = 3 << 20

// Mine runs IsTa on db and reports every closed item set with support at
// least opts.MinSupport, in the database's original item codes. It is the
// entry point for the paper's primary algorithm; engine-driven runs enter
// through the registration in register.go instead.
func Mine(db txdb.Source, opts Options, rep result.Reporter) error {
	if err := txdb.Validate(db); err != nil {
		return err
	}
	minsup := opts.MinSupport
	if minsup < 1 {
		minsup = 1
	}
	ctl := mining.Guarded(opts.Done, opts.Guard)
	pre := prep.Prepare(db, minsup, prep.Config{Items: opts.ItemOrder, Trans: opts.TransOrder})
	return minePrepared(pre, minsup, opts.DisablePruning, ctl, rep)
}

// minePrepared is the IsTa core on an already preprocessed database.
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
