package carpenter

import (
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/prep"
	"repro/internal/result"
	"repro/internal/txdb"
)

// Variant selects the database representation of §3.1.
type Variant int

const (
	// Lists is the list-based implementation (§3.1.1): a vertical
	// representation with per-item transaction index lists and per-branch
	// positions into them.
	Lists Variant = iota
	// Table is the table-based implementation (§3.1.2): the n×|B| matrix
	// of Table 1, whose entries answer membership and the remaining-
	// occurrence count in one lookup.
	Table
)

func (v Variant) String() string {
	if v == Table {
		return "carpenter-table"
	}
	return "carpenter-lists"
}

// minePrepared is the Carpenter search on an already preprocessed
// database. disableElimination turns off the item elimination of §3.1.1
// ("this optimization leads to a considerable speed-up"); hashRepository
// replaces the prefix-tree repository with a hash map on the canonical set
// encoding. Neither ever changes the result.
func minePrepared(pre *prep.Prepared, minsup int, variant Variant, disableElimination, hashRepository bool, ctl *mining.Control, rep result.Reporter) error {
	pdb := pre.DB
	if pdb.NumItems() == 0 || pdb.TotalWeight() < minsup {
		return nil
	}

	m := &miner{
		minsup: minsup,
		n:      pdb.NumTx(),
		elim:   !disableElimination,
		db:     pdb,
		suffW:  suffixWeights(pdb),
		pre:    pre,
		rep:    rep,
		ctl:    ctl,
	}
	if hashRepository {
		m.repo = newHashRepo()
	} else {
		m.repo = newRepoTree(pdb.NumItems())
	}
	if variant == Table {
		m.matrix = pdb.Matrix().M
	} else {
		m.tids = pdb.Vertical().Tids
		if !pdb.Uniform() {
			m.remW = remainingWeights(pdb, m.tids)
		}
	}

	// The root subproblem is (B, ∅, 1): the full item base, nothing
	// intersected yet.
	if variant == Table {
		root := make([]itemset.Item, pdb.NumItems())
		for i := range root {
			root[i] = itemset.Item(i)
		}
		return m.exploreTable(root, 0, 0)
	}
	root := make([]ip, pdb.NumItems())
	for i := range root {
		root[i] = ip{item: itemset.Item(i)}
	}
	return m.exploreLists(root, 0, 0)
}

// suffixWeights returns s with s[j] = total weight of rows j..n-1, the
// weighted version of the "transactions left to scan" bound (with uniform
// weights s[j] = n-j exactly).
func suffixWeights(db *txdb.DB) []int {
	n := db.NumTx()
	s := make([]int, n+1)
	for j := n - 1; j >= 0; j-- {
		s[j] = s[j+1] + db.Weight(j)
	}
	return s
}

// remainingWeights precomputes, for every item, the weighted suffix sums
// of its tid list: remW[i][p] = total weight of tids[i][p:]. Only needed
// for weighted databases; uniform ones read list lengths directly.
func remainingWeights(db *txdb.DB, tids [][]int32) [][]int32 {
	remW := make([][]int32, len(tids))
	for i, tl := range tids {
		r := make([]int32, len(tl)+1)
		for p := len(tl) - 1; p >= 0; p-- {
			r[p] = r[p+1] + int32(db.Weight(int(tl[p])))
		}
		remW[i] = r
	}
	return remW
}

type miner struct {
	minsup int
	n      int
	elim   bool
	repo   repository
	db     *txdb.DB
	suffW  []int // suffW[j] = total weight of rows j..n-1
	pre    *prep.Prepared
	rep    result.Reporter
	ctl    *mining.Control

	tids   [][]int32 // lists variant
	remW   [][]int32 // lists variant, weighted databases only
	matrix [][]int32 // table variant

	scratch itemset.Set // reusable buffer for repository lookups/reports
}

// ip is one item of the current intersection in the lists variant,
// carrying the branch-local position into the item's transaction list
// (the "next unprocessed transaction index" of §3.1.1).
type ip struct {
	item itemset.Item
	pos  int32
}

// exploreLists processes the subproblem whose intersection is items
// (ascending item order; positions point at the first transaction index
// ≥ ell in each list) with weight(K) = kSize, scanning transactions
// ell..n-1. All counts are weighted; with uniform weights they are the
// paper's transaction counts exactly.
func (m *miner) exploreLists(items []ip, kSize, ell int) error {
	perfectSeen := false
	for j := ell; j < m.n && len(items) > 0; j++ {
		if err := m.ctl.Tick(); err != nil {
			return err
		}
		m.ctl.CountOps(1) // one transaction intersection per scan step
		// Neither this node nor anything below can reach minsup anymore.
		if kSize+m.suffW[j] < m.minsup {
			break
		}
		// Intersect with transaction j: keep the items whose list
		// contains j, applying item elimination (§3.1.1): an item whose
		// remaining occurrences cannot lift weight(K)+w_j to minsup is
		// dropped.
		wj := m.db.Weight(j)
		matched := 0
		child := make([]ip, 0, len(items))
		for _, it := range items {
			tl := m.tids[it.item]
			if int(it.pos) < len(tl) && tl[it.pos] == int32(j) {
				matched++
				if !m.elim || kSize+m.remaining(it.item, int(it.pos)) >= m.minsup {
					child = append(child, ip{item: it.item, pos: it.pos + 1})
				}
			}
		}
		perfect := matched == len(items)
		if len(child) > 0 && !m.repo.Contains(m.setOf(child)) {
			if err := m.exploreLists(child, kSize+wj, j+1); err != nil {
				return err
			}
		}
		if perfect {
			// Perfect extension (I1 == I0): the exclude branch cannot
			// produce reportable output; moreover this node's set is
			// contained in t_j, so it is reported deeper, not here.
			perfectSeen = true
			break
		}
		// Advance the scan positions past j for the next iteration.
		for i := range items {
			tl := m.tids[items[i].item]
			if int(items[i].pos) < len(tl) && tl[items[i].pos] == int32(j) {
				items[i].pos++
			}
		}
	}
	if !perfectSeen && kSize >= m.minsup {
		m.report(m.setOf(items), kSize)
	}
	return nil
}

// setOf extracts the item codes of a lists-variant state into a reusable
// scratch buffer (valid until the next setOf call).
func (m *miner) setOf(items []ip) itemset.Set {
	m.scratch = m.scratch[:0]
	for _, it := range items {
		m.scratch = append(m.scratch, it.item)
	}
	return m.scratch
}

// remaining returns the weighted count of the not-yet-scanned
// transactions containing item (its tid list from pos on), the
// item-elimination counter of §3.1.1.
func (m *miner) remaining(item itemset.Item, pos int) int {
	if m.remW == nil {
		return len(m.tids[item]) - pos
	}
	return int(m.remW[item][pos])
}

// exploreTable is the same search over the matrix representation: items
// holds the current intersection (ascending), membership and remaining
// counts come from M[j][i].
func (m *miner) exploreTable(items []itemset.Item, kSize, ell int) error {
	perfectSeen := false
	for j := ell; j < m.n && len(items) > 0; j++ {
		if err := m.ctl.Tick(); err != nil {
			return err
		}
		m.ctl.CountOps(1) // one transaction intersection per scan step
		if kSize+m.suffW[j] < m.minsup {
			break
		}
		row := m.matrix[j]
		matched := 0
		child := make([]itemset.Item, 0, len(items))
		for _, it := range items {
			if cnt := row[it]; cnt > 0 {
				matched++
				if !m.elim || kSize+int(cnt) >= m.minsup {
					child = append(child, it)
				}
			}
		}
		perfect := matched == len(items)
		if len(child) > 0 && !m.repo.Contains(child) {
			if err := m.exploreTable(child, kSize+m.db.Weight(j), j+1); err != nil {
				return err
			}
		}
		if perfect {
			perfectSeen = true
			break
		}
	}
	if !perfectSeen && kSize >= m.minsup {
		m.report(itemset.Set(items), kSize)
	}
	return nil
}

// report emits the set (after a final repository check — the set may have
// been inserted by a sibling branch through a different transaction
// prefix) and records it in the repository. The repository size is
// polled against the guard's node budget; a tripped budget surfaces at
// the caller's next Tick.
func (m *miner) report(s itemset.Set, support int) {
	if len(s) == 0 {
		return
	}
	if m.repo.Contains(s) {
		return
	}
	m.repo.Insert(s)
	if m.ctl.PollNodes(m.repo.Len()) != nil {
		return
	}
	m.rep.Report(m.pre.DecodeSet(s), support)
}
