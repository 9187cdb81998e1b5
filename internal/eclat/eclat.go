// Package eclat implements the Eclat algorithm (Zaki et al.): depth-first
// search over the item set lattice with a vertical database representation
// in which every search node carries the transaction id set of its prefix,
// and extensions are found by intersecting tid sets. Besides the classic
// "all frequent item sets" target it offers closed and maximal targets;
// the closed target uses the same closure-candidate + repository scheme as
// FP-close (package fpgrowth), adapted to Eclat's ascending processing
// order. Its repository is not a CFI-tree but a closed index keyed by the
// candidate's tid set (tid count, tid sum), as in CHARM: a stored
// superset with equal support has exactly the candidate's tid set, so
// one bucket lookup answers the subsumption check (closed.go, DESIGN
// §5i).
//
// Tid sets are internal/tidset kernel sets: the representation (sparse
// list, bitmap, diffset) is chosen adaptively per node, intersections
// stop early once the minsup bound is unreachable, and each recursion
// level draws its result storage from a depth-scoped arena, so a level
// runs allocation-free in steady state.
//
// Before the root level, a cost rule may choose Zaki's pair count: one
// pass over the rows fills a triangular matrix with every item pair's
// weighted support, and the root level then intersects only the frequent
// pairs. The pass runs when its increments cost less than the root
// level's list elements and bitmap words, the matrix is no larger than
// the vertical view, and the total weight fits in an int32 (DESIGN §5i).
package eclat

import (
	"repro/internal/engine"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/prep"
	"repro/internal/result"
	"repro/internal/tidset"
	"repro/internal/txdb"
)

// ClosedAllocBudget is the checked-in budget, in bytes, for one engine
// run of the Closed target over gendata.Dense(2000, 48, 0.05, 0.90, 1)
// at minsup 550 (TestClosedAllocs and its CI step enforce it). The run
// allocates about 1.12 MB; the CFI-tree the closed index replaced took
// 1.34 MB, above the budget.
const ClosedAllocBudget = 1200 << 10

// ext is one extension candidate at a search node: an item and the tid
// set of prefix ∪ {item}. The Set value must stay at a stable address
// while its subtree is mined (diffset children reference it), which the
// depth-indexed extension buffers guarantee: a buffer is rewritten only
// after the subtree reading it has fully unwound.
type ext struct {
	item itemset.Item
	set  tidset.Set
}

// minePrepared is the Eclat search on an already preprocessed database.
func minePrepared(pre *prep.Prepared, minsup int, target engine.Target, ctl *mining.Control, rep result.Reporter) error {
	m := &eclatMiner{
		minsup: minsup,
		target: target,
		pre:    pre,
		db:     pre.DB,
		rep:    rep,
		ctl:    ctl,
	}
	return m.mineTarget()
}

type eclatMiner struct {
	minsup int
	target engine.Target
	pre    *prep.Prepared
	db     *txdb.DB
	rep    result.Reporter
	ctl    *mining.Control
	closed closedIndex
	// pairs is pairsByCost outside tests.
	pairs pairMode

	ker *tidset.Kernel
	// pairSupp is the upper-triangular pair matrix (see countPairs), nil
	// when the cost rule declined the counting pass.
	pairSupp []int32
	// Depth-indexed pools: the extension and perfect-item buffers of one
	// recursion level, reused across that level's siblings.
	extBufs  [][]ext
	perfBufs []itemset.Set
}

// mineTarget mines m.target into m.rep.
func (m *eclatMiner) mineTarget() error {
	if m.db.NumItems() == 0 {
		return nil
	}
	if m.target == engine.Maximal {
		// Mine closed sets into a buffer and post-filter: the maximal
		// frequent sets are the closed sets without closed proper
		// supersets.
		rep := m.rep
		m.target = engine.Closed
		var buf result.Set
		m.rep = buf.Collect()
		if err := m.run(); err != nil {
			return err
		}
		maximal := result.FilterMaximal(&buf)
		for _, p := range maximal.Patterns {
			rep.Report(p.Items, p.Support)
		}
		return nil
	}
	return m.run()
}

func (m *eclatMiner) run() error {
	m.ker = tidset.NewKernel(m.db.KernelUniverse())
	sets := m.db.KernelSets()
	if m.pairs == pairsOn || m.pairs == pairsByCost && pairCountPays(m.db, sets) {
		var err error
		if m.pairSupp, err = countPairs(m.db, m.ctl); err != nil {
			return err
		}
	}
	root := make([]ext, 0, len(sets))
	for i := range sets {
		// Prepare already removed infrequent items.
		root = append(root, ext{item: itemset.Item(i), set: sets[i]})
	}
	prefix := make(itemset.Set, 0, 32)
	return m.mine(0, prefix, root)
}

// extend builds the frequent extensions of prefix ∪ {e.item}: e's tid
// set intersected with each remaining sibling's, under the minsup bound
// so hopeless merges stop early. For the Closed target, siblings whose
// intersection keeps e's whole tid set are split off as perfect
// extensions (§2.2) instead of becoming child nodes. Results live in the
// depth-scoped arena and buffers; in steady state a call allocates
// nothing.
func (m *eclatMiner) extend(depth int, e *ext, rest []ext) ([]ext, itemset.Set) {
	ar := m.ker.Level(depth)
	ar.Reset() // the previous sibling's subtree is dead
	for len(m.extBufs) <= depth {
		m.extBufs = append(m.extBufs, nil)
		m.perfBufs = append(m.perfBufs, nil)
	}
	next := m.extBufs[depth][:0]
	perfect := m.perfBufs[depth][:0]
	// At the root, e and rest are single items: pairs the counting pass
	// found infrequent need no intersection.
	var supp []int32
	if depth == 0 && m.pairSupp != nil {
		supp = m.pairSupp[pairRowStart(int(e.item), m.db.NumItems()):]
	}
	for j := range rest {
		f := &rest[j]
		if supp != nil && int(supp[f.item-e.item-1]) < m.minsup {
			continue
		}
		shared, ok := m.ker.Intersect(ar, &e.set, &f.set, m.minsup)
		if !ok {
			continue
		}
		if m.target == engine.Closed && shared.Card() == e.set.Card() {
			perfect = append(perfect, f.item)
			continue
		}
		next = append(next, ext{item: f.item, set: shared})
	}
	m.extBufs[depth] = next
	m.perfBufs[depth] = perfect
	return next, perfect
}

// mine processes one search node: prefix with the frequent extensions
// exts (each carrying the tid set of prefix ∪ {item}).
func (m *eclatMiner) mine(depth int, prefix itemset.Set, exts []ext) error {
	for idx := range exts {
		e := &exts[idx]
		if err := m.ctl.Tick(); err != nil {
			return err
		}
		supp := e.set.Support()
		m.ctl.CountOps(len(exts) - idx - 1) // tid-set intersections below
		next, perfect := m.extend(depth, e, exts[idx+1:])
		st := m.ker.DrainStats()
		m.ctl.CountKernel(st.Isects, st.EarlyStops, st.Switches)

		switch m.target {
		case engine.All:
			m.emit(append(prefix, e.item), supp)
			if len(next) > 0 {
				if err := m.mine(depth+1, append(prefix, e.item), next); err != nil {
					return err
				}
			}
		case engine.Closed:
			cand := make(itemset.Set, 0, len(prefix)+1+len(perfect))
			cand = append(cand, prefix...)
			cand = append(cand, e.item)
			cand = append(cand, perfect...)
			canon := itemset.Canonicalize(cand)
			// Perfect extensions keep e's tid set, so e.set is canon's.
			card, sum := e.set.Card(), e.set.TidSum()
			if m.closed.Subsumed(canon, card, sum) {
				// A previously found closed superset with equal support
				// exists; this branch cannot contain closed sets.
				continue
			}
			m.closed.Insert(canon, card, sum)
			m.ctl.CountNodes(m.closed.Len())
			m.emit(canon, supp)
			if len(next) > 0 {
				if err := m.mine(depth+1, canon, next); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (m *eclatMiner) emit(items itemset.Set, supp int) {
	m.rep.Report(m.pre.DecodeSet(items), supp)
}
