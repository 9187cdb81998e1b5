package parallel

import (
	"sync"
	"time"

	"repro/internal/carpenter"
	"repro/internal/engine"
	"repro/internal/guard"
	"repro/internal/itemset"
	"repro/internal/obs"
	"repro/internal/prep"
	"repro/internal/result"
)

// minePreparedCarpenter is the branch-parallel table Carpenter on an
// already preprocessed database: the top-level transaction-set branches
// fan out across cfg.workers goroutines. Each worker owns a private
// repository, so branches that the sequential shared repository would
// have suppressed are re-explored and re-reported (possibly with the
// partial support counted from the branch's own starting transaction);
// the final keep-the-maximum merge per item set reconstructs the
// sequential pattern set exactly — every branch report is an intersection
// of transactions and hence closed, and the branch rooted at the first
// transaction of a set's cover reports its full support. The merged
// output is emitted in canonical order, which makes it deterministic
// regardless of scheduling. cfg.done/cfg.g are needed separately
// from cfg.ctl because each worker builds a private control on them
// (sharing ctl's Counters, so worker work shows up in the run's stats
// and progress); cfg.run, when non-nil, receives the merge-phase span;
// cfg.policy, when enabled, supervises failed branch workers.
func minePreparedCarpenter(pre *prep.Prepared, cfg runCfg, rep result.Reporter) error {
	minsup, workers := cfg.minsup, cfg.workers
	done, g, ctl, run := cfg.done, cfg.g, cfg.ctl, cfg.run
	if pre.DB.NumItems() == 0 || pre.DB.TotalWeight() < minsup {
		return nil
	}
	if err := ctl.Tick(); err != nil {
		return err
	}
	counters := ctl.Counters()

	brancher := carpenter.NewTableBrancher(pre, minsup)
	branches := brancher.Branches()

	// Round-robin assignment keeps each worker's branches in increasing
	// first-transaction order, which the per-worker repository reuse
	// requires, and is deterministic (though the merge would make any
	// assignment deterministic).
	merged := make([]*result.MaxMerger, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Contain panics (Explore recovers its own, but the merger and
			// loop around it run here too): the pool drains through the
			// WaitGroup — workers share no channels — and the panic
			// surfaces as a *guard.PanicError from firstError.
			defer guard.Recover(&errs[w])
			m := result.NewMaxMerger()
			merged[w] = m
			worker := brancher.NewWorker(done, g, counters, result.ReporterFunc(
				func(items itemset.Set, supp int) { m.Add(items, supp) }))
			for b := w; b < len(branches); b += workers {
				if err := worker.Explore(branches[b]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Supervision: re-explore each failed worker's branch group
	// sequentially per the retry policy — into a fresh merger, replacing
	// the worker's partial one only on success, so a healed group
	// contributes exactly once. A group that stays failed keeps its
	// partial merger (every branch report is an intersection of
	// transactions and hence genuinely closed, with its support a lower
	// bound), and the run returns a typed partial result after emission.
	// With the zero policy any failure aborts exactly as before; a
	// deliberate stop aborts even with healing on.
	if !cfg.policy.Enabled() {
		if err := firstError(errs); err != nil {
			return err
		}
	}
	for _, err := range errs {
		if err != nil && stops(err) {
			return err
		}
	}
	var shardErrs []engine.ShardError
	degraded := 0
	for w := 0; w < workers; w++ {
		if errs[w] == nil {
			continue
		}
		healed, serr, stop := cfg.supervise("branch group", w, true, errs[w], func() (err error) {
			defer guard.Recover(&err)
			m := result.NewMaxMerger()
			worker := brancher.NewWorker(done, g, counters, result.ReporterFunc(
				func(items itemset.Set, supp int) { m.Add(items, supp) }))
			for b := w; b < len(branches); b += workers {
				if e := worker.Explore(branches[b]); e != nil {
					return e
				}
			}
			merged[w] = m
			return nil
		})
		switch {
		case stop != nil:
			return stop
		case !healed:
			shardErrs = append(shardErrs, *serr)
			degraded++
		}
	}
	if degraded == workers {
		return &engine.PartialError{Shards: shardErrs}
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
	run.Span(obs.PhaseMerge, mergeStart)
	if len(shardErrs) > 0 {
		return &engine.PartialError{Shards: shardErrs}
	}
	return nil
}
