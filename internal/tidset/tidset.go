// Package tidset provides the shared transaction-id-set kernels of the
// vertical (Eclat-family) miners: one adaptive set value with three
// interchangeable physical representations and intersection kernels that
// pick the cheapest algorithm for the operand pair at hand.
//
// Representations:
//
//   - Sparse: a sorted []int32 tid list — the classical vertical layout,
//     best below ~1/16 density.
//   - Dense: a []uint64 bitmap over the row universe with popcount
//     support counting — word-parallel AND makes intersections on dense
//     covers dozens of times cheaper than element merges.
//   - Diff: a difference list relative to a parent set (dEclat's
//     diffsets, Zaki & Gouda): when a child retains almost all of its
//     parent, storing only what was dropped shrinks both memory and the
//     next level's intersections, which become difference merges.
//
// The representation is chosen adaptively per result at well-defined
// thresholds (see the constants below and DESIGN.md §5i); miners never
// branch on it. All kernels take a minsup bound and stop early — exactly,
// not heuristically — as soon as the running support plus the remaining
// weight cannot reach the bound, returning a below-threshold result so
// callers skip materialization entirely.
//
// tidset sits at the bottom of the package DAG next to internal/itemset:
// it imports nothing of this module (enforced by the repository's import
// lint), so every layer — txdb, miners, the parallel engines — can share
// one kernel implementation.
package tidset

import (
	"fmt"
	"math/bits"
)

// Representation thresholds. The memory crossover between a sorted
// []int32 list (4 bytes per tid) and a bitmap (n/8 bytes) is at density
// 1/32; promotion and demotion sit a factor of four to either side of it
// so sets near the crossover do not flap between representations.
const (
	// denseMinUniverse is the smallest row universe for which bitmaps are
	// considered: below it the fixed word overhead outweighs any win.
	denseMinUniverse = 256
	// densePromoteDiv promotes a sparse result to Dense at density
	// ≥ 1/densePromoteDiv (the bitmap is then at most half the bytes and
	// intersections become word-parallel).
	densePromoteDiv = 16
	// sparseDemoteDiv demotes a dense result to Sparse below density
	// 1/sparseDemoteDiv.
	sparseDemoteDiv = 64
	// diffKeepDiv keeps a result as a diffset while the difference list
	// stays at or below parentCard/diffKeepDiv.
	diffKeepDiv = 8
	// diffMinCard is the smallest parent cardinality for which diffsets
	// pay off.
	diffMinCard = 16
	// gallopRatio switches a sparse×sparse intersection from the linear
	// merge to the galloping (binary-probe) kernel when one list is at
	// least this many times longer than the other.
	gallopRatio = 16
)

// Rep identifies a Set's physical representation.
type Rep uint8

const (
	// Sparse is a sorted tid list.
	Sparse Rep = iota
	// Dense is a bitmap over the row universe.
	Dense
	// Diff is a difference list relative to a parent set.
	Diff
)

func (r Rep) String() string {
	switch r {
	case Sparse:
		return "sparse"
	case Dense:
		return "dense"
	case Diff:
		return "diff"
	}
	return fmt.Sprintf("rep(%d)", int(r))
}

// Universe describes the tid domain all sets of one database share: the
// row count and the optional weights column (nil means every row weighs
// 1, the uniform fast path). It is a value type; copies share the weights
// column.
type Universe struct {
	// N is the number of rows; tids are in [0, N).
	N int
	// W is the per-row weight column; nil means uniform weight 1.
	W []int32
}

// Uniform reports whether every row weighs 1.
func (u Universe) Uniform() bool { return u.W == nil }

// words is the bitmap length of the universe.
func (u Universe) words() int { return (u.N + 63) / 64 }

// weightAt returns the weight of row t.
func (u Universe) weightAt(t int32) int {
	if u.W == nil {
		return 1
	}
	return int(u.W[t])
}

// WeightOf returns the weighted support of a tid list: the total weight
// of the identified rows (its length on a uniform universe).
func (u Universe) WeightOf(tids []int32) int {
	if u.W == nil {
		return len(tids)
	}
	w := 0
	for _, t := range tids {
		w += int(u.W[t])
	}
	return w
}

// wordWeight returns the total weight of the rows set in word w at word
// index wi (the weighted popcount of one bitmap word).
func (u Universe) wordWeight(wi int, w uint64) int {
	if u.W == nil {
		return bits.OnesCount64(w)
	}
	total := 0
	base := int32(wi << 6)
	for w != 0 {
		total += int(u.W[base+int32(bits.TrailingZeros64(w))])
		w &= w - 1
	}
	return total
}

// FromSorted wraps a canonical (strictly ascending) tid list as a Sparse
// set, computing its weighted support once. The slice is borrowed, not
// copied; it must stay immutable for the set's lifetime.
func (u Universe) FromSorted(tids []int32) Set {
	return Set{rep: Sparse, card: len(tids), weight: u.WeightOf(tids), tids: tids}
}

// Promote returns s converted to a freshly allocated Dense bitmap when
// the universe size and s's density warrant it, and s unchanged
// otherwise. It is meant for long-lived base sets (the per-item tid lists
// a whole mining run intersects against); transient results are promoted
// by the kernels themselves out of arena storage.
func (u Universe) Promote(s Set) Set {
	if s.rep != Sparse || u.N < denseMinUniverse || s.card < u.N/densePromoteDiv {
		return s
	}
	words := make([]uint64, u.words())
	for _, t := range s.tids {
		words[t>>6] |= 1 << (uint(t) & 63)
	}
	return Set{rep: Dense, card: s.card, weight: s.weight, words: words}
}

// Set is one adaptive tid set: a value type whose physical representation
// (Sparse, Dense, or Diff) is an implementation detail behind O(1)
// cardinality and weighted-support accessors. Sets are immutable once
// produced; Diff sets additionally reference their parent Set, which must
// outlive them (in the miners, parents live higher on the recursion
// stack, so the contract holds structurally).
type Set struct {
	rep    Rep
	card   int // number of tids in the set
	weight int // weighted support; == card on uniform universes
	tids   []int32
	words  []uint64
	parent *Set
}

// Rep returns the set's current physical representation.
func (s *Set) Rep() Rep { return s.rep }

// Card returns the number of tids in the set.
func (s *Set) Card() int { return s.card }

// Support returns the set's weighted support (== Card on a uniform
// universe). It is O(1): every kernel maintains the weight while
// producing the set.
func (s *Set) Support() int { return s.weight }

// Empty reports whether the set holds no tids.
func (s *Set) Empty() bool { return s.card == 0 }

// AppendTids appends the set's members in ascending order to dst and
// returns the extended slice. This is the materialization boundary for
// callers that need a concrete tid list (row-enumeration switches,
// sub-database builds); Support and Card never need it.
func (s *Set) AppendTids(dst []int32) []int32 {
	switch s.rep {
	case Sparse:
		return append(dst, s.tids...)
	case Dense:
		for wi, w := range s.words {
			base := int32(wi << 6)
			for w != 0 {
				dst = append(dst, base+int32(bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
		return dst
	default: // Diff: parent members minus the difference list.
		d := s.tids
		j := 0
		s.parent.forEach(func(t int32) {
			for j < len(d) && d[j] < t {
				j++
			}
			if j < len(d) && d[j] == t {
				return
			}
			dst = append(dst, t)
		})
		return dst
	}
}

// TidSum returns the sum of the set's tids. Together with Card it is a
// cheap key of the tid set itself: equal sets have equal keys, so a key
// lookup finds every stored set equal to this one (plus, rarely, sets
// that only collide). It never materializes the set.
func (s *Set) TidSum() int64 {
	switch s.rep {
	case Sparse:
		return sumTids(s.tids)
	case Dense:
		// A word's tids are 64·wi plus its bit positions, and the
		// positions sum to Σ_k 2^k·popcount(w & plane k), where plane k
		// holds the positions with bit k set.
		var base int64
		var p0, p1, p2, p3, p4, p5 int
		for wi, w := range s.words {
			if w == 0 {
				continue
			}
			base += int64(wi) * int64(bits.OnesCount64(w))
			p0 += bits.OnesCount64(w & 0xAAAAAAAAAAAAAAAA)
			p1 += bits.OnesCount64(w & 0xCCCCCCCCCCCCCCCC)
			p2 += bits.OnesCount64(w & 0xF0F0F0F0F0F0F0F0)
			p3 += bits.OnesCount64(w & 0xFF00FF00FF00FF00)
			p4 += bits.OnesCount64(w & 0xFFFF0000FFFF0000)
			p5 += bits.OnesCount64(w & 0xFFFFFFFF00000000)
		}
		return base<<6 + int64(p0) + int64(p1)<<1 + int64(p2)<<2 +
			int64(p3)<<3 + int64(p4)<<4 + int64(p5)<<5
	default: // Diff: the parent (always Sparse) minus the difference list.
		return sumTids(s.parent.tids) - sumTids(s.tids)
	}
}

func sumTids(tids []int32) int64 {
	var sum int64
	for _, t := range tids {
		sum += int64(t)
	}
	return sum
}

// forEach visits the members in ascending order.
func (s *Set) forEach(f func(int32)) {
	switch s.rep {
	case Sparse:
		for _, t := range s.tids {
			f(t)
		}
	case Dense:
		for wi, w := range s.words {
			base := int32(wi << 6)
			for w != 0 {
				f(base + int32(bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
	default:
		d := s.tids
		j := 0
		s.parent.forEach(func(t int32) {
			for j < len(d) && d[j] < t {
				j++
			}
			if j < len(d) && d[j] == t {
				return
			}
			f(t)
		})
	}
}
