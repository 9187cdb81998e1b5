package eclat

import (
	"math/bits"

	"repro/internal/itemset"
)

// closedBlock is the number of entries per block of a closedIndex, and
// the size of its first head table.
const closedBlock = 512

// closedIndex is the Closed target's repository: the closed sets found
// so far, keyed by their tid set (DESIGN §5i). A candidate X is
// subsumed when a stored Y ⊇ X has the same support. Y ⊇ X gives
// tids(Y) ⊆ tids(X), and with row weights ≥ 1 equal support then means
// tids(Y) = tids(X). So every such Y has X's key (tid count, tid sum),
// and one bucket lookup finds it. A key match counts only when X ⊆ Y as
// item sets, and with equal tid counts that forces tids(Y) = tids(X):
// keys that merely collide never change the answer.
//
// Buckets are chains through the entries. The head table is a power of
// two and doubles when the entries reach its size; entries live in fixed
// blocks, so growing never moves them.
type closedIndex struct {
	heads  []int32 // per bucket: 1 + index of the chain's first entry; 0 = empty
	shift  uint    // 64 - log2(len(heads))
	blocks []*[closedBlock]closedEntry
	n      int
}

type closedEntry struct {
	items itemset.Set
	sum   int64
	card  int32
	next  int32 // 1 + index of the next entry in the chain; 0 ends it
}

// Len returns the number of stored sets.
func (x *closedIndex) Len() int { return x.n }

func (x *closedIndex) at(i int32) *closedEntry { return &x.blocks[i/closedBlock][i%closedBlock] }

func (x *closedIndex) bucket(card int32, sum int64) int {
	h := (uint64(sum)*0x9E3779B97F4A7C15 ^ uint64(card)) * 0xBF58476D1CE4E5B9
	return int(h >> x.shift)
}

// Subsumed reports whether a stored set with tid count card and tid sum
// sum contains items.
func (x *closedIndex) Subsumed(items itemset.Set, card int, sum int64) bool {
	if x.n == 0 {
		return false
	}
	c := int32(card)
	for i := x.heads[x.bucket(c, sum)]; i != 0; {
		e := x.at(i - 1)
		if e.sum == sum && e.card == c && items.SubsetOf(e.items) {
			return true
		}
		i = e.next
	}
	return false
}

// Insert stores items, whose tid set has card tids summing to sum. The
// index keeps items; the caller must not modify it afterwards.
func (x *closedIndex) Insert(items itemset.Set, card int, sum int64) {
	if x.n == len(x.heads) {
		x.grow()
	}
	i := int32(x.n)
	if x.n%closedBlock == 0 {
		x.blocks = append(x.blocks, new([closedBlock]closedEntry))
	}
	c := int32(card)
	b := x.bucket(c, sum)
	*x.at(i) = closedEntry{items: items, sum: sum, card: c, next: x.heads[b]}
	x.heads[b] = i + 1
	x.n++
}

// grow doubles the head table and rechains every entry.
func (x *closedIndex) grow() {
	size := max(2*len(x.heads), closedBlock)
	x.heads = make([]int32, size)
	x.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	for i := int32(0); i < int32(x.n); i++ {
		e := x.at(i)
		b := x.bucket(e.card, e.sum)
		e.next = x.heads[b]
		x.heads[b] = i + 1
	}
}
