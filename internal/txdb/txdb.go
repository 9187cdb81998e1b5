// Package txdb is the one transaction store of the repository: a flat,
// immutable CSR-style representation of a transaction database that the
// FIMI reader, the generators, prep and every miner share. Transactions
// live in a single contiguous []itemset.Item array addressed through an
// offsets column, with an optional weights column for duplicate-merged
// (multiset) databases and an optional names column mapping item codes to
// the external names of named input. The layout is built once — by a
// Builder (internal/dataset's reader, the generators, prep's pipeline) —
// and then read by every miner, engine and shard without copying: Tx
// returns a subslice of the shared items array, and Slice cuts a
// contiguous zero-copy range view for the parallel engines.
//
// Immutability contract: once a *DB is built, its columns never change.
// Everything handed out (Tx sets, Slice views, vertical tid lists) aliases
// the shared arrays and must be treated as read-only. This is what makes
// the zero-copy sharing safe across goroutines: concurrent readers need no
// locks because there are no writers. The derived views (item frequencies,
// the vertical tid-list view) are built lazily on first use under a
// sync.Once, so miners that never ask for them (IsTa, SaM, FP-growth) pay
// nothing, while Eclat-family miners get them exactly once per DB.
//
// txdb sits at the bottom of the package DAG: it depends on nothing above
// internal/itemset and internal/tidset (enforced by the repository's
// import lint).
package txdb

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/itemset"
	"repro/internal/tidset"
)

// Source is the read-only transaction-database view every miner and the
// engine layer consume. *DB implements it; the interface lets callers
// hand in any other row representation without a conversion copy.
//
// Weight is the multiplicity of row k (≥ 1); databases without merged
// duplicates report 1 for every row. Support semantics throughout the
// repository are weighted: the support of an item set is the total weight
// of the rows containing it, which for uniform weights is exactly the
// classical row count.
type Source interface {
	// NumItems is the size of the dense item universe; items in rows are
	// in [0, NumItems).
	NumItems() int
	// NumTx is the number of (distinct, if merged) transaction rows.
	NumTx() int
	// Tx returns row k as a canonical item set. The returned slice may
	// alias internal storage and must not be modified.
	Tx(k int) itemset.Set
	// Weight returns the multiplicity of row k (≥ 1).
	Weight(k int) int
}

// DB is the flat columnar store. The k-th transaction is
// ids[offs[k]:offs[k+1]]; offsets are absolute positions into ids, so a
// Slice view can share both columns unchanged. weights is nil for uniform
// (all-1) databases — the common case — so the weights column costs
// nothing unless duplicates were actually merged. names is nil for
// numeric input in the same way; when set, its length is the universe.
type DB struct {
	items   int
	ids     []itemset.Item
	offs    []int32  // len NumTx()+1, absolute into ids
	weights []int32  // nil ⇒ every row has weight 1
	names   []string // nil ⇒ items have no external names
	totalW  int      // sum of row weights

	freqOnce sync.Once
	freq     []int // weighted item frequencies, built lazily

	vertOnce sync.Once
	vert     *Vertical // lazy vertical (tid-list) view

	kernOnce sync.Once
	kern     []tidset.Set // lazy kernel-set view of the vertical lists
}

// NumItems returns the size of the item universe.
func (db *DB) NumItems() int { return db.items }

// NumTx returns the number of transaction rows.
func (db *DB) NumTx() int { return len(db.offs) - 1 }

// Tx returns row k as a zero-copy canonical item set aliasing the shared
// items column. Callers must not modify it.
func (db *DB) Tx(k int) itemset.Set {
	return itemset.Set(db.ids[db.offs[k]:db.offs[k+1]])
}

// Len returns the length of row k without materializing it.
func (db *DB) Len(k int) int { return int(db.offs[k+1] - db.offs[k]) }

// Weight returns the multiplicity of row k.
func (db *DB) Weight(k int) int {
	if db.weights == nil {
		return 1
	}
	return int(db.weights[k])
}

// Names returns the external name of every item code, or nil when the
// items have none (numeric input, generated data). The slice is shared
// and must be treated as read-only.
func (db *DB) Names() []string { return db.names }

// String renders the rows as item sets, a row of weight w > 1 followed
// by "×w", so that printing a store shows its contents, not its columns.
func (db *DB) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for k := 0; k < db.NumTx(); k++ {
		if k > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(db.Tx(k).String())
		if w := db.Weight(k); w > 1 {
			fmt.Fprintf(&b, "×%d", w)
		}
	}
	b.WriteByte(']')
	return b.String()
}

// Uniform reports whether every row has weight 1 (no weights column).
// Miners use it to keep count-based fast paths on undeduplicated input.
func (db *DB) Uniform() bool { return db.weights == nil }

// TotalWeight is the sum of all row weights — the weighted transaction
// count that support thresholds compare against. For uniform databases it
// equals NumTx().
func (db *DB) TotalWeight() int { return db.totalW }

// NumIds returns the total length of the items column (the sum of row
// lengths) — the amount of "work" in the database, which the parallel
// engines balance shards by.
func (db *DB) NumIds() int { return int(db.offs[len(db.offs)-1] - db.offs[0]) }

// ItemFreqs returns the weighted frequency of every item: the total weight
// of the rows containing it. The slice is computed once, cached, and must
// be treated as read-only.
func (db *DB) ItemFreqs() []int {
	db.freqOnce.Do(func() {
		freq := make([]int, db.items)
		n := db.NumTx()
		for k := 0; k < n; k++ {
			w := db.Weight(k)
			for _, i := range db.Tx(k) {
				freq[i] += w
			}
		}
		db.freq = freq
	})
	return db.freq
}

// Slice returns the zero-copy view of rows [lo, hi): the view shares the
// items, offsets and weights columns with db (offsets stay absolute, so no
// rebasing copy is needed) and only its row indexing is shifted; the
// names column is shared too. Derived
// views (ItemFreqs, Vertical) are per-view and built lazily; a vertical
// view's tids are relative to the slice (0..hi-lo-1).
func (db *DB) Slice(lo, hi int) *DB {
	if lo < 0 || hi < lo || hi > db.NumTx() {
		panic(fmt.Sprintf("txdb: Slice[%d:%d) out of range [0:%d)", lo, hi, db.NumTx()))
	}
	v := &DB{
		items: db.items,
		ids:   db.ids,
		offs:  db.offs[lo : hi+1 : hi+1],
		names: db.names,
	}
	if db.weights != nil {
		v.weights = db.weights[lo:hi:hi]
		for _, w := range v.weights {
			v.totalW += int(w)
		}
	} else {
		v.totalW = hi - lo
	}
	return v
}

// FromSource materializes any Source into a flat DB in a single pass with
// a constant number of allocations. If src is already a *DB it is returned
// unchanged (it is immutable, so sharing is safe).
func FromSource(src Source) *DB {
	if db, ok := src.(*DB); ok {
		return db
	}
	n := src.NumTx()
	total := 0
	uniform := true
	for k := 0; k < n; k++ {
		total += len(src.Tx(k))
		if src.Weight(k) != 1 {
			uniform = false
		}
	}
	db := &DB{
		items: src.NumItems(),
		ids:   make([]itemset.Item, 0, total),
		offs:  make([]int32, 1, n+1),
	}
	if !uniform {
		db.weights = make([]int32, 0, n)
	}
	for k := 0; k < n; k++ {
		db.ids = append(db.ids, src.Tx(k)...)
		db.offs = append(db.offs, int32(len(db.ids)))
		w := src.Weight(k)
		if !uniform {
			db.weights = append(db.weights, int32(w))
		}
		db.totalW += w
	}
	return db
}

// TotalWeightOf returns the weighted transaction count of any Source,
// using the cached value when src is a *DB.
func TotalWeightOf(src Source) int {
	if db, ok := src.(*DB); ok {
		return db.TotalWeight()
	}
	n := src.NumTx()
	total := 0
	for k := 0; k < n; k++ {
		total += src.Weight(k)
	}
	return total
}

// Validate checks the structural invariants every miner relies on: rows
// canonical (strictly ascending), items inside the universe, weights
// positive, and a names column, if any, naming exactly the universe. The
// engine layer calls it once on entry so malformed input fails fast
// instead of corrupting a repository.
func Validate(src Source) error {
	items := src.NumItems()
	if items < 0 {
		return fmt.Errorf("txdb: negative item universe %d", items)
	}
	if db, ok := src.(*DB); ok && db.names != nil && len(db.names) != items {
		return fmt.Errorf("txdb: %d names for %d items", len(db.names), items)
	}
	n := src.NumTx()
	for k := 0; k < n; k++ {
		t := src.Tx(k)
		if !t.IsCanonical() {
			return fmt.Errorf("txdb: transaction %d is not canonical: %v", k, t)
		}
		if len(t) > 0 && (t[0] < 0 || int(t[len(t)-1]) >= items) {
			return fmt.Errorf("txdb: transaction %d has item outside universe [0,%d): %v", k, items, t)
		}
		if src.Weight(k) < 1 {
			return fmt.Errorf("txdb: transaction %d has non-positive weight %d", k, src.Weight(k))
		}
	}
	return nil
}

// Stats summarises a database; the bench harness prints it next to every
// experiment so the workload shape (the paper's key variable) is visible.
// Row-shape statistics are over distinct rows; Transactions is the
// weighted count.
type Stats struct {
	Transactions int     // weighted transaction count
	Rows         int     // distinct rows (== Transactions when uniform)
	Items        int     // universe size
	UsedItems    int     // items occurring at least once
	MinLen       int     // shortest transaction
	MaxLen       int     // longest transaction
	AvgLen       float64 // mean transaction length
	Density      float64 // AvgLen / UsedItems
}

func (s Stats) String() string {
	return fmt.Sprintf("n=%d |B|=%d used=%d len[min=%d avg=%.1f max=%d] density=%.4f",
		s.Transactions, s.Items, s.UsedItems, s.MinLen, s.AvgLen, s.MaxLen, s.Density)
}

// Stats computes summary statistics of db.
func (db *DB) Stats() Stats { return StatsOf(db) }

// StatsOf computes summary statistics for any Source.
func StatsOf(src Source) Stats {
	n := src.NumTx()
	s := Stats{Rows: n, Items: src.NumItems()}
	if n == 0 {
		return s
	}
	used := make(map[itemset.Item]struct{})
	s.MinLen = len(src.Tx(0))
	total := 0
	for k := 0; k < n; k++ {
		t := src.Tx(k)
		s.Transactions += src.Weight(k)
		total += len(t)
		if len(t) < s.MinLen {
			s.MinLen = len(t)
		}
		if len(t) > s.MaxLen {
			s.MaxLen = len(t)
		}
		for _, i := range t {
			used[i] = struct{}{}
		}
	}
	s.UsedItems = len(used)
	s.AvgLen = float64(total) / float64(n)
	if s.UsedItems > 0 {
		s.Density = s.AvgLen / float64(s.UsedItems)
	}
	return s
}
