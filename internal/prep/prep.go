// Package prep is the single shared preprocessing pipeline every miner in
// this repository consumes (the representation layer the paper's §3.4
// identifies as decisive for speed): item frequency counting,
// infrequent-item removal, frequency-based item recoding, dropping of
// emptied transactions, and transaction reordering, together with the
// bookkeeping needed to report results in the original item codes.
//
// Miners never re-implement any of these steps; they declare their
// preprocessing requirements as a Config (through their engine
// registration, see internal/engine) and receive a Prepared database —
// an immutable columnar txdb.DB that every layer then shares without
// copying.
//
// The pipeline materializes the database exactly once: rows are encoded
// straight into flat columnar arrays (recoding and re-canonicalizing each
// row in place inside the flat buffer), and transaction reordering is an
// index-permutation gather. The whole of Prepare performs a constant
// number of allocations regardless of database size, asserted by a
// checked-in allocation budget in the package tests.
package prep

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/itemset"
	"repro/internal/txdb"
)

// ItemOrder selects how item codes are (re)assigned during preprocessing.
type ItemOrder int

const (
	// OrderAscFreq gives the rarest item code 0 (the paper's recommended
	// coding, §3.4).
	OrderAscFreq ItemOrder = iota
	// OrderDescFreq gives the most frequent item code 0.
	OrderDescFreq
	// OrderKeep keeps the original codes (after compaction).
	OrderKeep
)

func (o ItemOrder) String() string {
	switch o {
	case OrderAscFreq:
		return "items:asc-freq"
	case OrderDescFreq:
		return "items:desc-freq"
	case OrderKeep:
		return "items:keep"
	}
	return fmt.Sprintf("items:%d", int(o))
}

// TransOrder selects how transactions are ordered during preprocessing.
type TransOrder int

const (
	// OrderSizeAsc processes short transactions first (the paper's
	// recommendation: the prefix tree stays small early on).
	OrderSizeAsc TransOrder = iota
	// OrderSizeDesc processes long transactions first (the paper reports
	// this as clearly worse; kept for the §3.4 ablation).
	OrderSizeDesc
	// OrderOriginal keeps the input order.
	OrderOriginal
)

func (o TransOrder) String() string {
	switch o {
	case OrderSizeAsc:
		return "trans:size-asc"
	case OrderSizeDesc:
		return "trans:size-desc"
	case OrderOriginal:
		return "trans:original"
	}
	return fmt.Sprintf("trans:%d", int(o))
}

// Config is a miner's declared preprocessing requirement: which item
// coding and transaction order the algorithm wants. The zero value is the
// paper's recommended configuration for IsTa (ascending-frequency item
// codes, transactions by increasing size).
// Duplicate merging is not a preprocessing step: callers that want
// weighted rows run txdb.MergeDuplicates first, and Prepare keeps row
// weights as given.
type Config struct {
	Items ItemOrder
	Trans TransOrder
}

func (c Config) String() string { return c.Items.String() + " " + c.Trans.String() }

// PrepAllocBudget is the checked-in allocation budget for one Prepare pass
// over an already-columnar source: the deliberate one-off allocations
// (flat columns, permutation, frequency/code tables, sort machinery) fit
// comfortably below it, while any reintroduced per-transaction copy blows
// past it on the thousands-of-rows test databases. Both the package test
// and the bench harness's CI smoke assertion enforce it.
const PrepAllocBudget = 64

// Prepared is a preprocessed database: infrequent items removed, items
// recoded, transactions reordered, plus the bookkeeping needed to report
// results in the original item codes.
type Prepared struct {
	// DB is the preprocessed database (dense recoded universe) in the
	// shared columnar representation. It is immutable; miners, engines and
	// parallel shards alias it freely.
	DB *txdb.DB
	// Decode maps a recoded item back to its original code.
	Decode []itemset.Item
	// Freq holds the weighted frequency (in the full database) of each
	// recoded item; since the recoded universe only contains frequent
	// items, Freq[i] >= the minsup used for preparation.
	Freq []int
	// OrigTransactions is the weighted number of transactions in the
	// original database (empty transactions are dropped from DB but still
	// counted here, matching the paper's support semantics). For an
	// unweighted source this is simply the row count.
	OrigTransactions int
}

// Prepare performs the standard preprocessing pipeline shared by all
// miners in this repository:
//
//  1. count weighted item frequencies and drop items with frequency <
//     minSupport (no closed frequent item set can contain them — if an
//     item occurs in every transaction of a cover of weight ≥ minsup it
//     is itself frequent);
//  2. recode the surviving items according to cfg.Items, encoding every
//     row directly into the flat columnar arrays;
//  3. drop transactions that became empty;
//  4. reorder transactions according to cfg.Trans, ties broken by a
//     lexicographic comparison on descending item codes (§3.4).
//
// minSupport values below 1 are treated as 1.
func Prepare(src txdb.Source, minSupport int, cfg Config) *Prepared {
	if minSupport < 1 {
		minSupport = 1
	}
	items := src.NumItems()
	freq := sourceFreqs(src)

	// Collect surviving items and decide their new codes.
	type itemFreq struct {
		item itemset.Item
		freq int
	}
	alive := make([]itemFreq, 0, items)
	for i, f := range freq {
		if f >= minSupport {
			alive = append(alive, itemFreq{itemset.Item(i), f})
		}
	}
	switch cfg.Items {
	case OrderAscFreq:
		slices.SortFunc(alive, func(a, b itemFreq) int {
			return cmp.Or(cmp.Compare(a.freq, b.freq), cmp.Compare(a.item, b.item))
		})
	case OrderDescFreq:
		slices.SortFunc(alive, func(a, b itemFreq) int {
			return cmp.Or(cmp.Compare(b.freq, a.freq), cmp.Compare(a.item, b.item))
		})
	case OrderKeep:
		// alive is already in ascending original-code order.
	}

	decode := make([]itemset.Item, len(alive))
	newFreq := make([]int, len(alive))
	encode := make([]itemset.Item, items)
	for i := range encode {
		encode[i] = -1
	}
	for code, af := range alive {
		decode[code] = af.item
		newFreq[code] = af.freq
		encode[af.item] = itemset.Item(code)
	}

	db := encodeRows(src, encode, len(alive), cfg.Items != OrderKeep)
	db = orderRows(db, cfg.Trans)

	return &Prepared{
		DB:               db,
		Decode:           decode,
		Freq:             newFreq,
		OrigTransactions: txdb.TotalWeightOf(src),
	}
}

// sourceFreqs returns the weighted item frequencies of src, reusing the
// cached index when src is already a columnar DB.
func sourceFreqs(src txdb.Source) []int {
	if db, ok := src.(*txdb.DB); ok {
		return db.ItemFreqs()
	}
	freq := make([]int, src.NumItems())
	n := src.NumTx()
	for k := 0; k < n; k++ {
		w := src.Weight(k)
		for _, i := range src.Tx(k) {
			freq[i] += w
		}
	}
	return freq
}

// encodeRows is the single materialization of the pipeline: every source
// row is recoded through encode straight into one flat builder, dropping
// eliminated items and emptied rows; when the recoding is not monotone the
// row is re-sorted in place inside the flat array. No per-row allocation
// happens — AddRow canonicalizes within the builder's backing array.
func encodeRows(src txdb.Source, encode []itemset.Item, universe int, resort bool) *txdb.DB {
	n := src.NumTx()
	total := 0
	if db, ok := src.(*txdb.DB); ok {
		total = db.NumIds()
	} else {
		for k := 0; k < n; k++ {
			total += len(src.Tx(k))
		}
	}
	b := txdb.NewBuilder(n, total)
	b.SetNumItems(universe)
	row := make([]itemset.Item, 0, 64)
	for k := 0; k < n; k++ {
		row = row[:0]
		for _, i := range src.Tx(k) {
			if c := encode[i]; c >= 0 {
				row = append(row, c)
			}
		}
		if len(row) == 0 {
			continue
		}
		if resort {
			slices.Sort(row)
		}
		b.AddWeighted(row, src.Weight(k))
	}
	return b.Build()
}

// orderRows applies the transaction ordering as an index-permutation
// gather over the flat columns: sort a row permutation, then copy each row
// once into fresh columns in the new order. Two passes over the data, a
// constant number of allocations.
func orderRows(db *txdb.DB, order TransOrder) *txdb.DB {
	if order == OrderOriginal || db.NumTx() < 2 {
		return db
	}
	n := db.NumTx()
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	sign := 1 // OrderSizeAsc
	if order == OrderSizeDesc {
		sign = -1
	}
	// Equal rows keep their input order, as a stable sort would keep
	// them; the index tie-break lets the faster unstable sort do it.
	slices.SortFunc(perm, func(a, b int32) int {
		if c := cmp.Compare(db.Len(int(a)), db.Len(int(b))); c != 0 {
			return sign * c
		}
		return cmp.Or(lexDescCompare(db.Tx(int(a)), db.Tx(int(b))), cmp.Compare(a, b))
	})
	b := txdb.NewBuilder(n, db.NumIds())
	b.SetNumItems(db.NumItems())
	for _, k := range perm {
		b.AddWeighted(db.Tx(int(k)), db.Weight(int(k)))
	}
	return b.Build()
}

// lexDescCompare compares two transactions lexicographically on a
// descending listing of their item codes (the paper uses "a
// lexicographical order of the transactions based on a descending order
// of items in each transaction"); a proper prefix of that listing comes
// first.
func lexDescCompare(a, b itemset.Set) int {
	i, j := len(a)-1, len(b)-1
	for i >= 0 && j >= 0 {
		if a[i] != b[j] {
			return cmp.Compare(a[i], b[j])
		}
		i--
		j--
	}
	return cmp.Compare(i, j)
}

// DecodeSet maps a recoded item set back to original codes, in canonical
// order.
func (p *Prepared) DecodeSet(s itemset.Set) itemset.Set {
	out := make(itemset.Set, len(s))
	for i, c := range s {
		out[i] = p.Decode[c]
	}
	slices.Sort(out)
	return out
}
