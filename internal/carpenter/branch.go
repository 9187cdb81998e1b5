// Branch-level access to the table-based search, used by the parallel
// miner (internal/parallel): the top-level include-branches of the
// enumeration of §3.1.2 are independent subproblems except for the shared
// repository, so they can run on separate workers with per-worker
// repositories as long as the duplicate (and partial-support) reports this
// produces are merged afterwards. Every set a branch reports is an
// intersection of actual transactions — hence closed — and the branch
// rooted at the first transaction of a set's cover reports it with its
// full support, so a keep-the-maximum merge per item set reconstructs the
// sequential result exactly (see result.MaxMerger).
package carpenter

import (
	"repro/internal/guard"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/prep"
	"repro/internal/result"
)

// TableBranch is one top-level include-branch of the table-based search:
// the subproblem that intersects transaction First into the root item base
// and continues scanning at First+1.
type TableBranch struct {
	// First is the index of the branch's first transaction.
	First int
	// items is the root intersection after item elimination.
	items []itemset.Item
}

// TableBrancher precomputes the top-level branches of the table-based
// search over a prepared database and lets workers explore them
// independently.
type TableBrancher struct {
	pre    *prep.Prepared
	matrix [][]int32
	suffW  []int
	minsup int
	n      int
}

// NewTableBrancher builds the brancher. pre must come from prep.Prepare
// with the minsup (≥ 1) used here.
func NewTableBrancher(pre *prep.Prepared, minsup int) *TableBrancher {
	return &TableBrancher{
		pre:    pre,
		matrix: pre.DB.Matrix().M,
		suffW:  suffixWeights(pre.DB),
		minsup: minsup,
		n:      pre.DB.NumTx(),
	}
}

// Branches enumerates the top-level include-branches in transaction order,
// mirroring the root loop of the sequential search: it stops early when no
// remaining branch can reach the minimum support, and when a transaction
// contains the whole item base (a perfect extension at the root, after
// which the sequential loop breaks too). Branches with an empty root
// intersection are skipped.
func (b *TableBrancher) Branches() []TableBranch {
	root := make([]itemset.Item, b.pre.DB.NumItems())
	for i := range root {
		root[i] = itemset.Item(i)
	}
	var out []TableBranch
	for j := 0; j < b.n; j++ {
		if b.suffW[j] < b.minsup {
			break
		}
		row := b.matrix[j]
		matched := 0
		child := make([]itemset.Item, 0, len(root))
		for _, it := range root {
			if cnt := row[it]; cnt > 0 {
				matched++
				if int(cnt) >= b.minsup {
					child = append(child, it)
				}
			}
		}
		if len(child) > 0 {
			out = append(out, TableBranch{First: j, items: child})
		}
		if matched == len(root) {
			break
		}
	}
	return out
}

// TableWorker explores branches with a private repository. A worker must
// process its branches in increasing First order (the repository-based
// subtree suppression is only valid when earlier branches were explored
// first, exactly as in the sequential scan); branches may be distributed
// across workers arbitrarily.
type TableWorker struct {
	m *miner
}

// NewWorker returns a fresh worker with its own repository, polling and
// charging its work to ctl (the worker's private control; the caller
// flushes it); rep receives the worker's (possibly duplicate or
// partial-support) reports in prepared item codes decoded to original
// codes.
func (b *TableBrancher) NewWorker(ctl *mining.Control, rep result.Reporter) *TableWorker {
	return &TableWorker{m: &miner{
		minsup: b.minsup,
		n:      b.n,
		elim:   true,
		repo:   newRepoTree(b.pre.DB.NumItems()),
		db:     b.pre.DB,
		suffW:  b.suffW,
		pre:    b.pre,
		rep:    rep,
		ctl:    ctl,
		matrix: b.matrix,
	}}
}

// Explore runs one branch to completion. It returns mining.ErrCanceled if
// the worker's done channel fired, the guard's typed error if a budget
// tripped, and a *guard.PanicError if the branch panicked — the panic is
// contained here so a worker goroutine can never crash the process.
func (w *TableWorker) Explore(br TableBranch) (err error) {
	defer guard.Recover(&err)
	items := append([]itemset.Item(nil), br.items...)
	return w.m.exploreTable(items, w.m.db.Weight(br.First), br.First+1)
}
