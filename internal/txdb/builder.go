package txdb

import (
	"slices"

	"repro/internal/itemset"
)

// Builder accumulates transactions directly into the flat columns, so
// every producer — the FIMI reader in internal/dataset, the synthetic
// generators, prep's pipeline, NewDatabase — emits straight into the final
// representation with no per-transaction allocations: growth is amortized
// over the backing arrays. A Builder is single-use: Build hands its
// columns to the DB without copying.
type Builder struct {
	items   int // universe floor; raised by observed items
	ids     []itemset.Item
	offs    []int32
	weights []int32 // nil until a weight ≠ 1 is added
	names   []string
	totalW  int
}

// NewBuilder returns a Builder. rowsHint/idsHint pre-size the columns
// (0 is fine).
func NewBuilder(rowsHint, idsHint int) *Builder {
	b := &Builder{
		ids:  make([]itemset.Item, 0, idsHint),
		offs: make([]int32, 1, rowsHint+1),
	}
	return b
}

// SetNumItems sets a floor for the item universe; the final universe is
// the larger of this and 1 + the largest item observed.
func (b *Builder) SetNumItems(n int) { b.items = n }

// SetNames attaches the names column: names[i] is the external name of
// item code i. It raises the universe floor to len(names); the caller
// keeps every row's items inside the table (Validate checks it).
func (b *Builder) SetNames(names []string) {
	b.names = names
	b.items = max(b.items, len(names))
}

// NumRows returns the number of rows added so far.
func (b *Builder) NumRows() int { return len(b.offs) - 1 }

// AddSet appends one transaction with weight 1. t must already be
// canonical (strictly ascending); its contents are copied.
func (b *Builder) AddSet(t itemset.Set) { b.AddWeighted(t, 1) }

// AddWeighted appends one canonical transaction with the given
// multiplicity (w ≥ 1).
func (b *Builder) AddWeighted(t itemset.Set, w int) {
	b.ids = append(b.ids, t...)
	b.closeRow(len(t), w)
}

// AddRow appends one transaction given as an arbitrary (unsorted, possibly
// duplicated) item list: the row is canonicalized in place inside the flat
// array, with no temporary allocation.
func (b *Builder) AddRow(row []itemset.Item) {
	start := len(b.ids)
	b.ids = append(b.ids, row...)
	b.canonicalRow(start)
}

// AddInts appends one transaction given as ints; a test and generator
// convenience equivalent to AddRow.
func (b *Builder) AddInts(row ...int) {
	start := len(b.ids)
	for _, v := range row {
		b.ids = append(b.ids, itemset.Item(v))
	}
	b.canonicalRow(start)
}

// FromInts builds a uniform database from rows of item codes, each
// canonicalized as by AddInts; the universe is the smallest one containing
// every item.
func FromInts(rows ...[]int) *DB {
	b := NewBuilder(len(rows), 0)
	for _, r := range rows {
		b.AddInts(r...)
	}
	return b.Build()
}

// canonicalRow sorts and deduplicates ids[start:] in place and closes it
// as a row of weight 1.
func (b *Builder) canonicalRow(start int) {
	seg := b.ids[start:]
	slices.Sort(seg)
	seg = slices.Compact(seg)
	b.ids = b.ids[:start+len(seg)]
	b.closeRow(len(seg), 1)
}

func (b *Builder) closeRow(rowLen, w int) {
	b.offs = append(b.offs, int32(len(b.ids)))
	if w != 1 && b.weights == nil {
		b.weights = make([]int32, 0, cap(b.offs))
		for i := 0; i < b.NumRows()-1; i++ {
			b.weights = append(b.weights, 1)
		}
	}
	if b.weights != nil {
		b.weights = append(b.weights, int32(w))
	}
	b.totalW += w
	if rowLen > 0 {
		if top := int(b.ids[len(b.ids)-1]) + 1; top > b.items {
			b.items = top
		}
	}
}

// Build finalizes the accumulated rows into an immutable DB. The Builder
// must not be used afterwards (the DB owns the columns).
func (b *Builder) Build() *DB {
	db := &DB{
		items:   b.items,
		ids:     b.ids,
		offs:    b.offs,
		weights: b.weights,
		names:   b.names,
		totalW:  b.totalW,
	}
	b.ids, b.offs, b.weights, b.names = nil, nil, nil, nil
	return db
}

// MergeDuplicates returns a database in which identical rows are merged
// into one row whose weight is the sum of the originals' weights (the
// multiset-to-weighted-set reduction of §2 of the paper: support counting
// only ever needs the multiplicity). Rows keep the order of their first
// occurrence, so a database without duplicates comes back row-identical.
// The names column carries over. The input is unchanged; the result owns
// fresh columns only when duplicates existed — otherwise db itself is
// returned.
func MergeDuplicates(db *DB) *DB {
	n := db.NumTx()
	if n < 2 {
		return db
	}
	// Sort a permutation by row content; identical rows become adjacent.
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, c int32) int {
		if cmp := itemset.Compare(db.Tx(int(a)), db.Tx(int(c))); cmp != 0 {
			return cmp
		}
		return int(a - c) // stable: first occurrence first within a group
	})
	// keeper[k] = index of the first row equal to row k; weight accumulates
	// on the keeper.
	keeper := make([]int32, n)
	addW := make([]int64, n)
	dups := 0
	for i := 0; i < n; {
		j := i
		lead := perm[i]
		for j < n && db.Tx(int(perm[j])).Equal(db.Tx(int(lead))) {
			k := perm[j]
			if k < lead {
				lead = k
			}
			j++
		}
		for ; i < j; i++ {
			k := perm[i]
			keeper[k] = lead
			addW[lead] += int64(db.Weight(int(k)))
			if k != lead {
				dups++
			}
		}
	}
	if dups == 0 {
		return db
	}
	out := NewBuilder(n-dups, db.NumIds())
	out.SetNumItems(db.items)
	out.SetNames(db.names)
	for k := 0; k < n; k++ {
		if int(keeper[k]) != k {
			continue
		}
		out.AddWeighted(db.Tx(k), int(addW[k]))
	}
	return out.Build()
}
