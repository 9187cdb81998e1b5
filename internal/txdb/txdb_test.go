package txdb_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/itemset"
	"repro/internal/txdb"
)

// buildRandom returns a random database over [0, items) with n rows; with
// weighted set, random multiplicities in [1, 4] are attached.
func buildRandom(rng *rand.Rand, items, n int, density float64, weighted bool) *txdb.DB {
	b := txdb.NewBuilder(n, 0)
	b.SetNumItems(items)
	row := make(itemset.Set, 0, items)
	for k := 0; k < n; k++ {
		row = row[:0]
		for i := 0; i < items; i++ {
			if rng.Float64() < density {
				row = append(row, itemset.Item(i))
			}
		}
		if weighted {
			b.AddWeighted(row, 1+rng.Intn(4))
		} else {
			b.AddSet(row)
		}
	}
	return b.Build()
}

func support(db *txdb.DB, items itemset.Set) int {
	s := 0
	for k := 0; k < db.NumTx(); k++ {
		if items.SubsetOf(db.Tx(k)) {
			s += db.Weight(k)
		}
	}
	return s
}

func TestBuilderCanonicalizesRows(t *testing.T) {
	b := txdb.NewBuilder(0, 0)
	b.AddRow([]itemset.Item{5, 1, 3, 1, 5})
	b.AddInts(2, 2, 0)
	b.AddSet(itemset.Set{})
	db := b.Build()
	if db.NumTx() != 3 {
		t.Fatalf("rows = %d", db.NumTx())
	}
	if !db.Tx(0).Equal(itemset.FromInts(1, 3, 5)) {
		t.Fatalf("row 0 = %v", db.Tx(0))
	}
	if !db.Tx(1).Equal(itemset.FromInts(0, 2)) {
		t.Fatalf("row 1 = %v", db.Tx(1))
	}
	if db.Len(2) != 0 {
		t.Fatalf("row 2 len = %d", db.Len(2))
	}
	if db.NumItems() != 6 {
		t.Fatalf("universe = %d, want 6 (largest item + 1)", db.NumItems())
	}
	if !db.Uniform() || db.TotalWeight() != 3 {
		t.Fatalf("uniform=%v totalW=%d", db.Uniform(), db.TotalWeight())
	}
	if err := txdb.Validate(db); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderWeightsLateFirstWeight(t *testing.T) {
	// The weights column materializes only when a non-1 weight appears;
	// earlier rows must be backfilled with weight 1.
	b := txdb.NewBuilder(0, 0)
	b.AddSet(itemset.FromInts(0))
	b.AddSet(itemset.FromInts(1))
	b.AddWeighted(itemset.FromInts(2), 5)
	db := b.Build()
	if db.Uniform() {
		t.Fatal("database with weight 5 row reported uniform")
	}
	if db.Weight(0) != 1 || db.Weight(1) != 1 || db.Weight(2) != 5 {
		t.Fatalf("weights = %d %d %d", db.Weight(0), db.Weight(1), db.Weight(2))
	}
	if db.TotalWeight() != 7 {
		t.Fatalf("total weight = %d", db.TotalWeight())
	}
	if got := fmt.Sprint(db); got != "[{0} {1} {2}×5]" {
		t.Fatalf("String = %q", got)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	bad := txdb.NewBuilder(0, 0)
	bad.AddWeighted(itemset.Set{3, 1}, 1) // not canonical, bypasses AddRow's sort
	if err := txdb.Validate(bad.Build()); err == nil {
		t.Fatal("non-canonical row passed Validate")
	}
	wide := txdb.NewBuilder(0, 0)
	wide.AddInts(0, 5)
	if err := txdb.Validate(shrunk{opaque{wide.Build()}, 2}); err == nil {
		t.Fatal("item outside the universe passed Validate")
	}
	named := txdb.NewBuilder(0, 0)
	named.SetNames([]string{"x"})
	named.AddInts(0, 1) // item 1 has no name
	if err := txdb.Validate(named.Build()); err == nil {
		t.Fatal("names column shorter than the universe passed Validate")
	}
	b := txdb.NewBuilder(0, 0)
	b.AddSet(itemset.FromInts(0, 1))
	db := b.Build()
	if err := txdb.Validate(db); err != nil {
		t.Fatal(err)
	}
}

func TestItemFreqsWeighted(t *testing.T) {
	b := txdb.NewBuilder(0, 0)
	b.SetNumItems(4)
	b.AddWeighted(itemset.FromInts(0, 1), 3)
	b.AddWeighted(itemset.FromInts(1, 2), 2)
	b.AddSet(itemset.FromInts(3))
	db := b.Build()
	freq := db.ItemFreqs()
	want := []int{3, 5, 2, 1}
	for i, w := range want {
		if freq[i] != w {
			t.Fatalf("freq[%d] = %d, want %d (all: %v)", i, freq[i], w, freq)
		}
	}
}

func TestSliceSharesBacking(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := buildRandom(rng, 20, 50, 0.4, false)
	v := db.Slice(10, 30)
	if v.NumTx() != 20 {
		t.Fatalf("view rows = %d", v.NumTx())
	}
	for k := 0; k < v.NumTx(); k++ {
		whole, view := db.Tx(10+k), v.Tx(k)
		if !whole.Equal(view) {
			t.Fatalf("row %d differs between view and parent", k)
		}
		if len(view) > 0 && &whole[0] != &view[0] {
			t.Fatalf("row %d was copied; Slice must alias the parent's items column", k)
		}
	}
}

func TestSlicePropertyShardSupports(t *testing.T) {
	// Cutting a database into contiguous shards must preserve weighted
	// supports additively: for any item set, the sum of shard supports
	// equals the whole-database support, and total weights add up too.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		items := 4 + rng.Intn(12)
		n := rng.Intn(60)
		db := buildRandom(rng, items, n, 0.2+rng.Float64()*0.5, trial%2 == 1)

		// Random contiguous partition of [0, n).
		var cuts []int
		lo := 0
		for lo < n {
			hi := lo + 1 + rng.Intn(n-lo)
			cuts = append(cuts, hi)
			lo = hi
		}
		shards := make([]*txdb.DB, 0, len(cuts))
		prev := 0
		for _, hi := range cuts {
			shards = append(shards, db.Slice(prev, hi))
			prev = hi
		}

		totalW := 0
		for _, s := range shards {
			totalW += s.TotalWeight()
		}
		if totalW != db.TotalWeight() {
			t.Fatalf("trial %d: shard weights sum to %d, whole DB has %d", trial, totalW, db.TotalWeight())
		}

		for probe := 0; probe < 10; probe++ {
			var q itemset.Set
			for i := 0; i < items; i++ {
				if rng.Float64() < 0.25 {
					q = append(q, itemset.Item(i))
				}
			}
			sum := 0
			for _, s := range shards {
				sum += support(s, q)
			}
			if whole := support(db, q); sum != whole {
				t.Fatalf("trial %d: support(%v) = %d over shards, %d on whole DB", trial, q, sum, whole)
			}
			q = nil
		}
	}
}

func TestSliceBoundsPanic(t *testing.T) {
	db := buildRandom(rand.New(rand.NewSource(3)), 5, 10, 0.5, false)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Slice did not panic")
		}
	}()
	db.Slice(4, 11)
}

// opaque hides a *DB behind a plain Source so FromSource takes its
// materializing path instead of the *DB fast path.
type opaque struct{ db *txdb.DB }

func (o opaque) NumItems() int        { return o.db.NumItems() }
func (o opaque) NumTx() int           { return o.db.NumTx() }
func (o opaque) Tx(k int) itemset.Set { return o.db.Tx(k) }
func (o opaque) Weight(k int) int     { return o.db.Weight(k) }

// shrunk reports a smaller universe than its rows use, which only a
// Source other than *DB can do.
type shrunk struct {
	opaque
	items int
}

func (s shrunk) NumItems() int { return s.items }

func TestFromSourceIdentityAndCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db := buildRandom(rng, 10, 20, 0.4, true)
	if txdb.FromSource(db) != db {
		t.Fatal("FromSource of a *DB must return it unchanged")
	}
	view := db.Slice(5, 15)
	if txdb.FromSource(view) != view {
		t.Fatal("FromSource of a Slice view (itself a *DB) must return it unchanged")
	}
	flat := txdb.FromSource(opaque{view})
	if flat.NumTx() != view.NumTx() || flat.TotalWeight() != view.TotalWeight() {
		t.Fatalf("shape changed: %d/%d rows, %d/%d weight",
			flat.NumTx(), view.NumTx(), flat.TotalWeight(), view.TotalWeight())
	}
	for k := 0; k < view.NumTx(); k++ {
		if !flat.Tx(k).Equal(view.Tx(k)) || flat.Weight(k) != view.Weight(k) {
			t.Fatalf("row %d differs after FromSource", k)
		}
	}
}

func TestMergeDuplicates(t *testing.T) {
	b := txdb.NewBuilder(0, 0)
	b.SetNumItems(5)
	b.AddSet(itemset.FromInts(0, 1))
	b.AddSet(itemset.FromInts(2))
	b.AddSet(itemset.FromInts(0, 1))
	b.AddWeighted(itemset.FromInts(0, 1), 2)
	b.AddSet(itemset.FromInts(3))
	db := b.Build()

	m := txdb.MergeDuplicates(db)
	if m.NumTx() != 3 {
		t.Fatalf("merged rows = %d, want 3", m.NumTx())
	}
	// First-occurrence order: {0,1}, {2}, {3}.
	if !m.Tx(0).Equal(itemset.FromInts(0, 1)) || m.Weight(0) != 4 {
		t.Fatalf("row 0 = %v weight %d, want {0 1} weight 4", m.Tx(0), m.Weight(0))
	}
	if !m.Tx(1).Equal(itemset.FromInts(2)) || m.Weight(1) != 1 {
		t.Fatalf("row 1 = %v weight %d", m.Tx(1), m.Weight(1))
	}
	if !m.Tx(2).Equal(itemset.FromInts(3)) || m.Weight(2) != 1 {
		t.Fatalf("row 2 = %v weight %d", m.Tx(2), m.Weight(2))
	}
	if m.TotalWeight() != db.TotalWeight() {
		t.Fatalf("total weight changed: %d vs %d", m.TotalWeight(), db.TotalWeight())
	}

	// No duplicates: the same *DB must come back (no copying).
	u := buildRandom(rand.New(rand.NewSource(5)), 30, 10, 0.5, false)
	if d := txdb.MergeDuplicates(u); d != u && d.NumTx() == u.NumTx() {
		t.Fatal("duplicate-free database should be returned unchanged")
	}
}

func TestMergeDuplicatesPreservesSupports(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 30; trial++ {
		items := 3 + rng.Intn(5) // small universe forces duplicates
		db := buildRandom(rng, items, 2+rng.Intn(40), 0.5, trial%2 == 1)
		m := txdb.MergeDuplicates(db)
		if err := txdb.Validate(m); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for probe := 0; probe < 8; probe++ {
			var q itemset.Set
			for i := 0; i < items; i++ {
				if rng.Float64() < 0.3 {
					q = append(q, itemset.Item(i))
				}
			}
			if a, b := support(db, q), support(m, q); a != b {
				t.Fatalf("trial %d: support(%v) changed %d -> %d after merge", trial, q, a, b)
			}
		}
	}
}

func TestVerticalAndTidsWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		weighted := trial%2 == 1
		db := buildRandom(rng, 12, 30, 0.4, weighted)
		v := db.Vertical()
		freq := db.ItemFreqs()
		for i := 0; i < db.NumItems(); i++ {
			if got := db.TidsWeight(v.Tids[i]); got != freq[i] {
				t.Fatalf("weighted=%v item %d: TidsWeight=%d freq=%d", weighted, i, got, freq[i])
			}
			// Definition: exactly the rows containing i, ascending.
			var want []int32
			for k := 0; k < db.NumTx(); k++ {
				if db.Tx(k).Contains(itemset.Item(i)) {
					want = append(want, int32(k))
				}
			}
			if !slices.Equal(v.Tids[i], want) {
				t.Fatalf("item %d: tids %v, want %v", i, v.Tids[i], want)
			}
		}
		if v != db.Vertical() {
			t.Fatal("Vertical must be cached")
		}
	}
}

func TestTransposeRoundTrip(t *testing.T) {
	// Transpose keeps empty rows, so transposing twice restores the
	// database exactly: universe and every row.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		db := buildRandom(rng, 15, 20, 0.35, false)
		tr := db.Transpose()
		if tr.NumItems() != db.NumTx() {
			t.Fatalf("transposed universe = %d, want %d", tr.NumItems(), db.NumTx())
		}
		back := tr.Transpose()
		if back.NumTx() != db.NumTx() || back.NumItems() != db.NumItems() {
			t.Fatalf("double transpose shape %d×%d, want %d×%d", back.NumTx(), back.NumItems(), db.NumTx(), db.NumItems())
		}
		for k := 0; k < db.NumTx(); k++ {
			if !back.Tx(k).Equal(db.Tx(k)) {
				t.Fatalf("row %d changed after double transpose: %v vs %v", k, back.Tx(k), db.Tx(k))
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Transpose of a weighted database must panic")
		}
	}()
	buildRandom(rand.New(rand.NewSource(10)), 5, 5, 0.5, true).Transpose()
}

func TestStats(t *testing.T) {
	b := txdb.NewBuilder(0, 0)
	b.SetNumItems(10)
	b.AddWeighted(itemset.FromInts(0, 1, 2), 3)
	b.AddSet(itemset.FromInts(4))
	db := b.Build()
	s := db.Stats()
	if s.Transactions != 4 || s.Rows != 2 {
		t.Fatalf("weighted/distinct counts: %+v", s)
	}
	if s.Items != 10 || s.UsedItems != 4 {
		t.Fatalf("universe: %+v", s)
	}
	if s.MinLen != 1 || s.MaxLen != 3 || s.AvgLen != 2 {
		t.Fatalf("lengths: %+v", s)
	}
}

func TestMatrixWeighted(t *testing.T) {
	// Table 1 semantics with weights: M[k][i] is the weighted count of
	// rows j >= k containing i, when i ∈ t_k.
	b := txdb.NewBuilder(0, 0)
	b.AddWeighted(itemset.FromInts(0, 1), 2)
	b.AddSet(itemset.FromInts(1))
	db := b.Build()
	m := db.Matrix()
	if m.M[0][0] != 2 || m.M[0][1] != 3 {
		t.Fatalf("row 0 = %v", m.M[0])
	}
	if m.M[1][0] != 0 || m.M[1][1] != 1 {
		t.Fatalf("row 1 = %v", m.M[1])
	}

	// Table 1 of the paper, exactly (a=0 … e=4).
	paper := txdb.FromInts(
		[]int{0, 1, 2},    // t1 = a b c
		[]int{0, 3, 4},    // t2 = a d e
		[]int{1, 2, 3},    // t3 = b c d
		[]int{0, 1, 2, 3}, // t4 = a b c d
		[]int{1, 2},       // t5 = b c
		[]int{0, 1, 3},    // t6 = a b d
		[]int{3, 4},       // t7 = d e
		[]int{2, 3, 4},    // t8 = c d e
	)
	table1 := [][]int32{
		{4, 5, 5, 0, 0},
		{3, 0, 0, 6, 3},
		{0, 4, 4, 5, 0},
		{2, 3, 3, 4, 0},
		{0, 2, 2, 0, 0},
		{1, 1, 0, 3, 0},
		{0, 0, 0, 2, 2},
		{0, 0, 1, 1, 1},
	}
	if got := paper.Matrix().M; !reflect.DeepEqual(got, table1) {
		t.Fatalf("matrix =\n%v\nwant Table 1\n%v", got, table1)
	}

	// The defining equation on random databases, weighted and not.
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		db := buildRandom(rng, 8, 9, 0.4, trial%2 == 1)
		m := db.Matrix()
		for k := 0; k < db.NumTx(); k++ {
			for i := 0; i < db.NumItems(); i++ {
				want := int32(0)
				if db.Tx(k).Contains(itemset.Item(i)) {
					for j := k; j < db.NumTx(); j++ {
						if db.Tx(j).Contains(itemset.Item(i)) {
							want += int32(db.Weight(j))
						}
					}
				}
				if m.M[k][i] != want {
					t.Fatalf("trial %d: M[%d][%d] = %d, want %d", trial, k, i, m.M[k][i], want)
				}
			}
		}
	}
}

// TestNamesColumn: the optional names column survives the zero-copy and
// merging transformations and is dropped by Transpose, whose items are
// rows.
func TestNamesColumn(t *testing.T) {
	b := txdb.NewBuilder(0, 0)
	names := []string{"a", "b", "c"}
	b.SetNames(names)
	b.AddInts(0, 1)
	b.AddInts(2)
	b.AddInts(0, 1)
	db := b.Build()
	if db.NumItems() != 3 || !slices.Equal(db.Names(), names) {
		t.Fatalf("universe %d, names %q", db.NumItems(), db.Names())
	}
	if got := db.Slice(1, 2).Names(); !slices.Equal(got, names) {
		t.Fatalf("Slice names = %q", got)
	}
	m := txdb.MergeDuplicates(db)
	if m.NumTx() != 2 || !slices.Equal(m.Names(), names) {
		t.Fatalf("MergeDuplicates: %d rows, names %q", m.NumTx(), m.Names())
	}
	if tr := db.Transpose(); tr.Names() != nil {
		t.Fatalf("Transpose names = %q, want none", tr.Names())
	}
	if txdb.FromInts([]int{0}).Names() != nil {
		t.Fatal("numeric database has a names column")
	}
}
