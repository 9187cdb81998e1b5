// Package apriori implements the classic level-wise Apriori algorithm
// (Agrawal & Srikant), included as the textbook enumeration baseline the
// paper's §1/§2 discussion starts from. Candidates of size k+1 are joined
// from frequent sets of size k, pruned by the apriori property, and
// counted against the horizontal database. Closed and maximal targets are
// derived from the full frequent collection by post-filtering, which is
// exactly how the original algorithm family would be used for those
// tasks.
package apriori

import (
	"sort"

	"repro/internal/engine"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/prep"
	"repro/internal/result"
)

// minePrepared is the level-wise search on an already preprocessed
// database.
func minePrepared(pre *prep.Prepared, minsup int, target engine.Target, ctl *mining.Control, rep result.Reporter) error {
	pdb := pre.DB
	if pdb.NumItems() == 0 {
		return nil
	}

	// Precompute a bit set per row for O(k) candidate counting; weighted
	// rows keep their multiplicity next to the bits.
	n := pdb.NumTx()
	bits := make([]*itemset.BitSet, n)
	rowW := make([]int, n)
	for k := 0; k < n; k++ {
		b := itemset.NewBitSet(pdb.NumItems())
		b.SetAll(pdb.Tx(k))
		bits[k] = b
		rowW[k] = pdb.Weight(k)
	}

	var out func(items itemset.Set, supp int)
	var filter *result.SubsumeFilter
	switch target {
	case engine.All:
		out = func(items itemset.Set, supp int) {
			rep.Report(pre.DecodeSet(items), supp)
		}
	case engine.Closed, engine.Maximal:
		// Collect closure candidates; every closed set is frequent and
		// maximal in its support group among all frequent sets.
		filter = result.NewSubsumeFilter()
		out = func(items itemset.Set, supp int) {
			filter.Add(items, supp)
		}
	}

	// Level 1.
	type entry struct {
		items itemset.Set
		supp  int
	}
	var level []entry
	for i := 0; i < pdb.NumItems(); i++ {
		// Preprocessing removed infrequent items, so every remaining item
		// is frequent by construction.
		level = append(level, entry{items: itemset.Set{itemset.Item(i)}, supp: pre.Freq[i]})
		out(itemset.Set{itemset.Item(i)}, pre.Freq[i])
	}

	for len(level) > 0 {
		// Join step: combine sets sharing the first k-1 items.
		sort.Slice(level, func(a, b int) bool {
			return itemset.CompareLex(level[a].items, level[b].items) < 0
		})
		frequentKeys := make(map[string]bool, len(level))
		for _, e := range level {
			frequentKeys[e.items.Key()] = true
		}
		var nextLevel []entry
		for a := 0; a < len(level); a++ {
			base := level[a].items
			for b := a + 1; b < len(level); b++ {
				other := level[b].items
				if !samePrefix(base, other) {
					break // sorted: no later set shares the prefix either
				}
				if err := ctl.Tick(); err != nil {
					return err
				}
				ctl.CountOps(1) // one candidate join/count attempt
				cand := base.WithItem(other[len(other)-1])
				// Prune step: every k-subset must be frequent.
				if !allSubsetsFrequent(cand, frequentKeys) {
					continue
				}
				supp := 0
				for k, bset := range bits {
					if bset.ContainsSet(cand) {
						supp += rowW[k]
					}
				}
				if supp >= minsup {
					nextLevel = append(nextLevel, entry{items: cand, supp: supp})
					out(cand, supp)
				}
			}
		}
		level = nextLevel
	}

	switch target {
	case engine.Closed:
		var closed result.Set
		filter.Emit(closed.Collect())
		closed.Sort()
		for _, p := range closed.Patterns {
			rep.Report(pre.DecodeSet(p.Items), p.Support)
		}
	case engine.Maximal:
		var closed result.Set
		filter.Emit(closed.Collect())
		maximal := result.FilterMaximal(&closed)
		for _, p := range maximal.Patterns {
			rep.Report(pre.DecodeSet(p.Items), p.Support)
		}
	}
	return nil
}

// samePrefix reports whether a and b (equal length, canonical) agree on
// all but the last item.
func samePrefix(a, b itemset.Set) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// allSubsetsFrequent checks the apriori prune: every subset of cand with
// one item removed must be frequent.
func allSubsetsFrequent(cand itemset.Set, frequent map[string]bool) bool {
	if len(cand) <= 2 {
		return true // both 1-subsets are frequent items by construction
	}
	sub := make(itemset.Set, len(cand)-1)
	for drop := range cand {
		copy(sub, cand[:drop])
		copy(sub[drop:], cand[drop+1:])
		if !frequent[sub.Key()] {
			return false
		}
	}
	return true
}
