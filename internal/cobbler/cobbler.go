// Package cobbler implements a Cobbler-style closed item set miner (Pan,
// Tung, Cong, Xu, SSDBM 2004), mentioned in §1 of the paper as the
// closely related variant of Carpenter: it *combines column and row
// enumeration*. The search starts as item (column) enumeration with a
// vertical representation; as soon as a search node's cover shrinks below
// a switching threshold, the search switches to transaction (row)
// enumeration — Carpenter — on the conditional database.
//
// The switch is justified by the Galois connection of §2.5: the closed
// item sets whose cover is contained in a node's transaction set T are
// exactly the intersections of subsets of T, so a Carpenter run restricted
// to T enumerates every closed set extending the node's closure, and the
// subtree below the node can be abandoned. Intersections of transactions
// are closed in the *full* database and carry their global support, so
// results from row blocks are valid as-is; a repository deduplicates sets
// reachable from several blocks.
package cobbler

import (
	"repro/internal/carpenter"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/prep"
	"repro/internal/result"
	"repro/internal/tidset"
	"repro/internal/txdb"
)

// defaultRowThreshold balances the two search styles: row enumeration is
// exponential in the cover size, so blocks must stay small.
const defaultRowThreshold = 32

// minePrepared is the combined column/row enumeration on an already
// preprocessed database. threshold is the cover size at or below which
// the search switches to row enumeration: 0 selects the default (32), a
// value ≥ the transaction count makes the miner a single Carpenter run,
// and a negative value disables switching (pure column enumeration).
func minePrepared(pre *prep.Prepared, minsup, threshold int, ctl *mining.Control, rep result.Reporter) error {
	if threshold == 0 {
		threshold = defaultRowThreshold
	}
	pdb := pre.DB
	if pdb.NumItems() == 0 || pdb.TotalWeight() < minsup {
		return nil
	}

	m := &miner{
		minsup:    minsup,
		threshold: threshold,
		db:        pdb,
		pre:       pre,
		rep:       rep,
		ctl:       ctl,
		reported:  make(map[string]bool),
	}

	// Root: if the whole database is already below the threshold, a
	// single Carpenter run does everything.
	if pdb.NumTx() <= threshold {
		all := make([]int32, pdb.NumTx())
		for k := range all {
			all[k] = int32(k)
		}
		return m.rowEnumerate(all)
	}

	m.ker = tidset.NewKernel(pdb.KernelUniverse())
	sets := pdb.KernelSets()
	exts := make([]ext, 0, len(sets))
	for i := range sets {
		exts = append(exts, ext{item: itemset.Item(i), set: sets[i]})
	}
	return m.mine(0, nil, exts)
}

// ext is one extension candidate: an item and the tid set of
// prefix ∪ {item}. As in package eclat, the Set must stay at a stable
// address while its subtree is mined (diffset children reference it).
type ext struct {
	item itemset.Item
	set  tidset.Set
}

type miner struct {
	minsup    int
	threshold int
	db        *txdb.DB
	pre       *prep.Prepared
	rep       result.Reporter
	ctl       *mining.Control
	cfi       result.CFITree
	reported  map[string]bool

	ker *tidset.Kernel
	// Depth-indexed pools (see eclat): extension and perfect-item buffers
	// of one recursion level, plus a scratch tid list for row switches.
	extBufs  [][]ext
	perfBufs []itemset.Set
	rowBuf   []int32
}

// extend builds the frequent extensions of prefix ∪ {e.item} with the
// shared tidset kernel under the minsup bound; siblings whose
// intersection keeps e's whole tid set become perfect extensions.
// Results live in the depth-scoped arena and buffers, so a call
// allocates nothing in steady state.
func (m *miner) extend(depth int, e *ext, rest []ext) ([]ext, itemset.Set) {
	ar := m.ker.Level(depth)
	ar.Reset() // the previous sibling's subtree is dead
	for len(m.extBufs) <= depth {
		m.extBufs = append(m.extBufs, nil)
		m.perfBufs = append(m.perfBufs, nil)
	}
	next := m.extBufs[depth][:0]
	perfect := m.perfBufs[depth][:0]
	for j := range rest {
		f := &rest[j]
		shared, ok := m.ker.Intersect(ar, &e.set, &f.set, m.minsup)
		if !ok {
			continue
		}
		if shared.Card() == e.set.Card() {
			perfect = append(perfect, f.item)
			continue
		}
		next = append(next, ext{item: f.item, set: shared})
	}
	m.extBufs[depth] = next
	m.perfBufs[depth] = perfect
	return next, perfect
}

// mine is the column-enumeration part: Eclat-style DFS over items with
// closure candidates, switching to row enumeration when a node's cover is
// small enough.
func (m *miner) mine(depth int, prefix itemset.Set, exts []ext) error {
	for idx := range exts {
		e := &exts[idx]
		if err := m.ctl.Tick(); err != nil {
			return err
		}
		m.ctl.CountOps(len(exts) - idx - 1) // tid-set intersections below
		supp := e.set.Support()

		// The switch compares distinct rows, not weight: row enumeration
		// is exponential in the number of rows in the block.
		if e.set.Card() <= m.threshold {
			// Row switch: a Carpenter run over this cover finds every
			// closed set whose cover is contained in it — which includes
			// everything this subtree could produce. The sibling
			// extensions are NOT covered (their tid sets differ), so only
			// this branch is replaced.
			m.rowBuf = e.set.AppendTids(m.rowBuf[:0])
			if err := m.rowEnumerate(m.rowBuf); err != nil {
				return err
			}
			continue
		}

		// Closure candidate via perfect extensions among the remaining
		// items (as in FP-close / Eclat-closed; smaller-code same-support
		// supersets were handled in earlier branches and are caught by
		// the repository).
		next, perfect := m.extend(depth, e, exts[idx+1:])
		st := m.ker.DrainStats()
		m.ctl.CountKernel(st.Isects, st.EarlyStops, st.Switches)
		cand := make(itemset.Set, 0, len(prefix)+1+len(perfect))
		cand = append(cand, prefix...)
		cand = append(cand, e.item)
		cand = append(cand, perfect...)
		canon := itemset.Canonicalize(cand)
		if m.cfi.Subsumed(canon, supp) {
			continue
		}
		m.emit(canon, supp)
		if len(next) > 0 {
			if err := m.mine(depth+1, canon.Clone(), next); err != nil {
				return err
			}
		}
	}
	return nil
}

// rowEnumerate runs Carpenter on the sub-database given by tids, under
// this run's control: the block shares its cancellation, budgets and
// counters. The intersections of subsets of these transactions are closed
// in the full database and their support within the block equals their
// global support (every transaction containing such a set lies in the
// block), so results can be reported directly after deduplication.
func (m *miner) rowEnumerate(tids []int32) error {
	if m.db.TidsWeight(tids) < m.minsup {
		return nil
	}
	// The block database is rebuilt through the builder so weights ride
	// along; rows alias the parent's items column only during the copy.
	b := txdb.NewBuilder(len(tids), 0)
	b.SetNumItems(m.db.NumItems())
	for _, t := range tids {
		b.AddWeighted(m.db.Tx(int(t)), m.db.Weight(int(t)))
	}
	// Carpenter's own preprocessing (§3.4) on the block; its decode maps
	// back to the block's codes, which are this miner's prepared codes.
	block := prep.Prepare(b.Build(), m.minsup, prep.Config{Items: prep.OrderAscFreq, Trans: prep.OrderSizeAsc})
	return carpenter.MineBlock(block, m.minsup, m.ctl, result.ReporterFunc(m.emit))
}

// emit reports a closed set once, in original item codes, and records it
// in both deduplication structures. The deduplication map doubles as the
// repository the guard's node budget bounds; a tripped budget surfaces at
// the next Tick.
func (m *miner) emit(items itemset.Set, supp int) {
	k := items.Key()
	if m.reported[k] {
		return
	}
	m.reported[k] = true
	m.cfi.Insert(items, supp)
	if m.ctl.PollNodes(len(m.reported)) != nil {
		return
	}
	m.rep.Report(m.pre.DecodeSet(items), supp)
}
