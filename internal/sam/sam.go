// Package sam implements SaM, the Split-and-Merge frequent item set miner
// (Borgelt & Wang — reference [3] of the paper): an item set enumeration
// algorithm with an exceptionally simple data structure, a single array of
// weighted transaction suffixes kept in lexicographic order. Each step
// *splits* off the group of transactions starting with the current minimum
// item (their weight sum is that item's support) and *merges* the
// remainder with the split group's suffixes, collapsing equal suffixes by
// adding weights.
//
// SaM enumerates all frequent item sets; the closed target is obtained
// with the same-support subsumption filter also used by the Apriori
// closed target (every closed set occurs among the frequent sets, and a
// frequent set is closed iff no frequent superset has equal support).
package sam

import (
	"sort"

	"repro/internal/engine"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/prep"
	"repro/internal/result"
)

// wtrans is one weighted transaction suffix. The items slice is shared
// with ancestors (suffixes are made by reslicing), which is what keeps
// SaM's memory footprint small.
type wtrans struct {
	w     int
	items itemset.Set
}

// minePrepared is the split-and-merge search on an already preprocessed
// database.
func minePrepared(pre *prep.Prepared, minsup int, target engine.Target, ctl *mining.Control, rep result.Reporter) error {
	pdb := pre.DB
	if pdb.NumItems() == 0 {
		return nil
	}

	// Initial array: all rows at their multiset weight (SaM is natively
	// weighted), identical transactions collapsed, lexicographically
	// ascending.
	list := make([]wtrans, 0, pdb.NumTx())
	for k, n := 0, pdb.NumTx(); k < n; k++ {
		list = append(list, wtrans{w: pdb.Weight(k), items: pdb.Tx(k)})
	}
	sort.Slice(list, func(a, b int) bool {
		return itemset.CompareLex(list[a].items, list[b].items) < 0
	})
	list = collapse(list)

	m := &samMiner{
		minsup: minsup,
		pre:    pre,
		ctl:    ctl,
	}
	switch target {
	case engine.All:
		m.out = func(items itemset.Set, supp int) {
			rep.Report(pre.DecodeSet(items), supp)
		}
	default: // Closed
		m.filter = result.NewSubsumeFilter()
		m.out = func(items itemset.Set, supp int) {
			m.filter.Add(items, supp)
		}
	}

	prefix := make(itemset.Set, 0, 32)
	if err := m.mine(list, prefix); err != nil {
		return err
	}
	if m.filter != nil {
		var closed result.Set
		m.filter.Emit(closed.Collect())
		closed.Sort()
		for _, p := range closed.Patterns {
			rep.Report(pre.DecodeSet(p.Items), p.Support)
		}
	}
	return nil
}

type samMiner struct {
	minsup int
	pre    *prep.Prepared
	ctl    *mining.Control
	out    func(items itemset.Set, supp int)
	filter *result.SubsumeFilter
}

// mine processes one conditional database (a lexicographically sorted
// array of weighted suffixes); every reported set extends prefix.
func (m *samMiner) mine(list []wtrans, prefix itemset.Set) error {
	for len(list) > 0 {
		if err := m.ctl.Tick(); err != nil {
			return err
		}
		m.ctl.CountOps(1) // one split-and-merge step
		// Split: the group of transactions starting with the minimum item
		// is the contiguous head of the sorted array.
		item := list[0].items[0]
		split := 0
		supp := 0
		for split < len(list) && list[split].items[0] == item {
			supp += list[split].w
			split++
		}

		// Conditional database: the split group with the item removed.
		cond := make([]wtrans, 0, split)
		for _, t := range list[:split] {
			if len(t.items) > 1 {
				cond = append(cond, wtrans{w: t.w, items: t.items[1:]})
			}
		}
		// Dropping the common head preserves lexicographic order, so the
		// suffixes are still sorted; equal suffixes became adjacent and
		// are collapsed.
		cond = collapse(cond)

		if supp >= m.minsup {
			m.out(append(prefix, item), supp)
			if len(cond) > 0 {
				if err := m.mine(cond, append(prefix, item)); err != nil {
					return err
				}
			}
		}

		// Merge: fold the conditional suffixes back into the remainder —
		// the database "without the item" (§2.2's second subproblem).
		list = merge(cond, list[split:])
	}
	return nil
}

// collapse merges adjacent equal transactions by adding weights (the
// input must be sorted).
func collapse(list []wtrans) []wtrans {
	if len(list) < 2 {
		return list
	}
	w := 0
	for r := 1; r < len(list); r++ {
		if list[r].items.Equal(list[w].items) {
			list[w].w += list[r].w
		} else {
			w++
			list[w] = list[r]
		}
	}
	return list[:w+1]
}

// merge combines two sorted weighted-suffix arrays, collapsing equal
// transactions.
func merge(a, b []wtrans) []wtrans {
	out := make([]wtrans, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := itemset.CompareLex(a[i].items, b[j].items); {
		case c == 0:
			out = append(out, wtrans{w: a[i].w + b[j].w, items: a[i].items})
			i++
			j++
		case c < 0:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
