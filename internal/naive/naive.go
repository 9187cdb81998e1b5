// Package naive contains the reference implementations this repository is
// validated and benchmarked against:
//
//   - the "flat" miner: the cumulative intersection scheme of Mielikäinen
//     (FIMI'03) with a flat repository — the baseline the paper reports to
//     be often >100× slower than IsTa precisely because it lacks the
//     prefix tree (§5);
//   - ClosedByTransactionSubsets and ClosedByItemSubsets: two independent
//     brute-force oracles used by the test suite.
package naive

import (
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/prep"
	"repro/internal/result"
)

// minePrepared mines closed frequent item sets with the flat cumulative
// intersection scheme: a repository holding every closed item set of the
// transactions processed so far (as a hash map keyed on the canonical set
// encoding), updated per transaction t by the recursion of §3.2:
//
//	C(T ∪ {t}) = C(T) ∪ {t} ∪ { s ∩ t : s ∈ C(T) }
//
// Supports are maintained with the same max rule the prefix tree uses.
// The scheme is exact but quadratic-ish in the repository size per
// transaction, which is the point of benchmarking against it.
func minePrepared(pre *prep.Prepared, minsup int, ctl *mining.Control, rep result.Reporter) error {
	repo := make(map[string]*flatEntry)
	pdb := pre.DB
	for k, n := 0, pdb.NumTx(); k < n; k++ {
		t := pdb.Tx(k)
		// A row of weight w is w identical multiset transactions; the max
		// rule telescopes, so one pass adding w is exactly w passes adding 1.
		w := pdb.Weight(k)
		ctl.CountOps(len(repo)) // one intersection per stored set
		// Collect the support contribution of this step per result set:
		// for result r, the best source is max over stored s with s∩t=r of
		// supp(s); the transaction itself contributes with 0 (it may
		// create a brand-new entry).
		step := map[string]int{t.Key(): 0}
		for _, e := range repo {
			if err := ctl.Tick(); err != nil {
				return err
			}
			r := e.items.Intersect(t)
			if len(r) == 0 {
				continue
			}
			k := r.Key()
			if best, ok := step[k]; !ok || e.supp > best {
				step[k] = e.supp
			}
		}
		for k, best := range step {
			e, ok := repo[k]
			if !ok {
				e = &flatEntry{items: itemset.ParseKey(k)}
				repo[k] = e
			}
			if e.supp > best {
				best = e.supp
			}
			e.supp = best + w
		}
		// The flat repository is the structure the node budget bounds.
		if err := ctl.PollNodes(len(repo)); err != nil {
			return err
		}
	}

	// Every repository entry is an intersection of one or more
	// transactions and therefore closed (§2.4): if r = ∩_{k∈K} t_k then
	// cover(r) ⊇ K and ∩_{k∈cover(r)} t_k is squeezed between r and r.
	// So no closedness filtering is needed — only the support threshold.
	for _, e := range repo {
		if e.supp >= minsup {
			rep.Report(pre.DecodeSet(e.items), e.supp)
		}
		if err := ctl.Tick(); err != nil {
			return err
		}
	}
	return nil
}

type flatEntry struct {
	items itemset.Set
	supp  int
}
