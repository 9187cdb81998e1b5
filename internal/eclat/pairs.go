package eclat

import (
	"math"
	"sort"

	"repro/internal/mining"
	"repro/internal/tidset"
	"repro/internal/txdb"
)

// pairMode selects whether the root level runs the pair-count
// prefilter. Production runs leave it to the cost rule; tests force
// either path to check that both mine the same sets.
type pairMode int8

const (
	pairsByCost pairMode = iota
	pairsOn
	pairsOff
)

// pairPollRows is how many rows the counting pass handles between two
// cancellation polls.
const pairPollRows = 1024

// pairCountPays is the cost rule of the pair-count prefilter (DESIGN
// §5i). Counting costs one increment per item pair of every row, plus
// clearing the matrix; it replaces the root level's intersections, whose
// kernel work rootWork estimates. The pass also needs the matrix to be
// no larger than the vertical view, and every count to fit in an int32.
func pairCountPays(db *txdb.DB, sets []tidset.Set) bool {
	n := len(sets)
	pairs := n * (n - 1) / 2
	if pairs == 0 || pairs > db.NumIds() || db.TotalWeight() > math.MaxInt32 {
		return false
	}
	isect := rootWork(sets, (db.NumTx()+63)/64)
	count := pairs
	for k, rows := 0, db.NumTx(); k < rows; k++ {
		l := db.Len(k)
		if count += l * (l - 1) / 2; count >= isect {
			return false
		}
	}
	return true
}

// rootWork estimates the kernel work of the root level, which intersects
// every pair of base sets: words per bitmap×bitmap pair, and the shorter
// list's length per other pair.
func rootWork(sets []tidset.Set, words int) int {
	cards := make([]int, 0, len(sets))
	var dense []int
	for i := range sets {
		cards = append(cards, sets[i].Card())
		if sets[i].Rep() == tidset.Dense {
			dense = append(dense, sets[i].Card())
		}
	}
	d := len(dense)
	return shorterSum(cards) - shorterSum(dense) + d*(d-1)/2*words
}

// shorterSum returns Σ min(c_i, c_j) over all pairs i < j of cards,
// sorting cards in place: the r-th smallest is the shorter operand of
// every pair it forms with the len-1-r larger ones.
func shorterSum(cards []int) int {
	sort.Ints(cards)
	sum := 0
	for r, c := range cards {
		sum += c * (len(cards) - 1 - r)
	}
	return sum
}

// pairRowStart is the offset of item i's row in the upper-triangular
// pair matrix of n items. Row i holds the pairs (i, j) for j > i at
// index j-i-1, so the root level reads one contiguous row per item.
func pairRowStart(i, n int) int { return i * (2*n - i - 1) / 2 }

// countPairs fills the pair matrix of db in one pass over its rows: the
// weighted support of every item pair. It polls ctl every pairPollRows
// rows and returns the run's stop cause once ctl is canceled.
func countPairs(db *txdb.DB, ctl *mining.Control) ([]int32, error) {
	n := db.NumItems()
	counts := make([]int32, n*(n-1)/2)
	for k, rows := 0, db.NumTx(); k < rows; k++ {
		if k%pairPollRows == 0 && ctl.Canceled() {
			return nil, ctl.Cause()
		}
		w := int32(db.Weight(k))
		row := db.Tx(k)
		for p, a := range row {
			// Rows are canonical, so every later item b is above a.
			base := pairRowStart(int(a), n) - int(a) - 1
			for _, b := range row[p+1:] {
				counts[base+int(b)] += w
			}
		}
	}
	return counts, nil
}
