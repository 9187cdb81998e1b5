package parallel

import (
	"time"

	"repro/internal/carpenter"
	"repro/internal/engine"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/prep"
	"repro/internal/result"
)

// minePreparedCarpenter is the branch-parallel table Carpenter on an
// already preprocessed database: the top-level transaction-set branches
// fan out across spec.Workers (≥ 2) goroutines. Each worker owns a private
// repository, so branches that the sequential shared repository would
// have suppressed are re-explored and re-reported (possibly with the
// partial support counted from the branch's own starting transaction);
// the final keep-the-maximum merge per item set reconstructs the
// sequential pattern set exactly — every branch report is an intersection
// of transactions and hence closed, and the branch rooted at the first
// transaction of a set's cover reports its full support. The merged
// output is emitted in canonical order, which makes it deterministic
// regardless of scheduling. spec.Retry, when enabled, supervises failed
// branch groups, and the merge phase is reported as a span to
// spec.Observer().
func minePreparedCarpenter(pre *prep.Prepared, spec *engine.Spec, rep result.Reporter) error {
	minsup, workers, ctl := spec.MinSupport, spec.Workers, spec.Control()
	if pre.DB.TotalWeight() < minsup {
		return nil
	}
	if err := ctl.Tick(); err != nil {
		return err
	}

	brancher := carpenter.NewTableBrancher(pre, minsup)
	branches := brancher.Branches()

	// Round-robin assignment keeps each worker's branches in increasing
	// first-transaction order, which the per-worker repository reuse
	// requires, and is deterministic (though the merge would make any
	// assignment deterministic). A retried group explores into a fresh
	// merger that replaces the worker's partial one only on success, so a
	// healed group contributes exactly once. A group that stays failed
	// keeps its first attempt's partial merger (every branch report is an
	// intersection of transactions and hence genuinely closed, with its
	// support a lower bound), and the run returns a typed partial result
	// after emission.
	merged := make([]*result.MaxMerger, workers)
	lost, err := fanOut(spec, "branch group", true, func(w int, wctl *mining.Control) error {
		m := result.NewMaxMerger()
		if merged[w] == nil {
			merged[w] = m
		}
		worker := brancher.NewWorker(wctl, result.ReporterFunc(
			func(items itemset.Set, supp int) { m.Add(items, supp) }))
		for b := w; b < len(branches); b += workers {
			if err := worker.Explore(branches[b]); err != nil {
				return err
			}
		}
		merged[w] = m
		return nil
	})
	if err != nil {
		return err
	}

	// Fold the per-worker merges into one and emit canonically.
	mergeStart := time.Now()
	total := result.NewMaxMerger()
	for _, m := range merged {
		if m == nil {
			continue
		}
		m.Emit(1, result.ReporterFunc(func(items itemset.Set, supp int) {
			total.Add(items, supp)
		}))
	}
	if err := ctl.Tick(); err != nil {
		return err
	}
	total.Emit(minsup, rep)
	spec.Observer().Span(obs.PhaseMerge, mergeStart)
	if len(lost) > 0 {
		return &engine.PartialError{Shards: lost}
	}
	return nil
}
