// Package lcm implements an LCM-style closed frequent item set miner
// (Uno, Kiyomi, Arimura — the FIMI'04 winning enumeration baseline of the
// paper). LCM enumerates closed sets by prefix-preserving closure
// extension (ppc-extension): every closed set has exactly one generating
// parent, so the search needs no repository and emits each closed set
// exactly once.
package lcm

import (
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/prep"
	"repro/internal/result"
	"repro/internal/txdb"
)

// minePrepared is the ppc-extension enumeration on an already
// preprocessed database.
func minePrepared(pre *prep.Prepared, minsup int, ctl *mining.Control, rep result.Reporter) error {
	pdb := pre.DB
	if pdb.NumItems() == 0 || pdb.TotalWeight() < minsup {
		return nil
	}

	m := &lcmMiner{
		minsup: minsup,
		db:     pdb,
		pre:    pre,
		rep:    rep,
		ctl:    ctl,
	}

	// Root: the closure of the full transaction set.
	all := make([]int32, pdb.NumTx())
	for k := range all {
		all[k] = int32(k)
	}
	root, counts := m.closure(all)
	if len(root) > 0 {
		m.rep.Report(m.pre.DecodeSet(root), pdb.TotalWeight())
	}
	return m.expand(root, all, counts, -1)
}

type lcmMiner struct {
	minsup int
	db     *txdb.DB
	pre    *prep.Prepared
	rep    result.Reporter
	ctl    *mining.Control
}

// closure computes the closure of the transaction set tids (the items
// occurring in every listed transaction) and returns it together with the
// per-item weighted occurrence counts within tids (the conditional
// frequencies). An item is in the closure iff its weighted count equals
// the total weight of tids — with uniform weights, the plain cover-size
// test. The counts slice is freshly allocated per call because the
// recursion needs the parent's counts while expanding children.
func (m *lcmMiner) closure(tids []int32) (itemset.Set, []int) {
	counts := make([]int, m.db.NumItems())
	coverW := 0
	for _, t := range tids {
		w := m.db.Weight(int(t))
		coverW += w
		for _, i := range m.db.Tx(int(t)) {
			counts[i] += w
		}
	}
	var clo itemset.Set
	for i, c := range counts {
		if c == coverW {
			clo = append(clo, itemset.Item(i))
		}
	}
	return clo, counts
}

// expand generates the ppc-extensions of the closed set p (with cover
// tids and conditional counts) using extension items greater than core.
func (m *lcmMiner) expand(p itemset.Set, tids []int32, counts []int, core int) error {
	coverW := m.db.TidsWeight(tids)
	for i := core + 1; i < m.db.NumItems(); i++ {
		if counts[i] < m.minsup || counts[i] == coverW {
			// Infrequent, or already in p (a perfect extension of p is
			// in its closure by construction).
			continue
		}
		if err := m.ctl.Tick(); err != nil {
			return err
		}
		m.ctl.CountOps(1) // one ppc-extension attempt (cover + closure)
		// Cover of p ∪ {i}.
		sub := make([]int32, 0, len(tids))
		for _, t := range tids {
			if m.db.Tx(int(t)).Contains(itemset.Item(i)) {
				sub = append(sub, t)
			}
		}
		q, qCounts := m.closure(sub)
		// Prefix-preserving check: the closure may only add items > i
		// beyond what p already contained below i.
		if !prefixPreserved(p, q, itemset.Item(i)) {
			continue
		}
		m.rep.Report(m.pre.DecodeSet(q), m.db.TidsWeight(sub))
		if err := m.expand(q, sub, qCounts, i); err != nil {
			return err
		}
	}
	return nil
}

// prefixPreserved reports whether q agrees with p on all items smaller
// than i (q is then a valid ppc-extension of p by item i).
func prefixPreserved(p, q itemset.Set, i itemset.Item) bool {
	a, b := 0, 0
	for a < len(p) && p[a] < i && b < len(q) && q[b] < i {
		if p[a] != q[b] {
			return false
		}
		a++
		b++
	}
	// Any leftover small item on either side breaks the prefix property.
	if a < len(p) && p[a] < i {
		return false
	}
	if b < len(q) && q[b] < i {
		return false
	}
	return true
}
