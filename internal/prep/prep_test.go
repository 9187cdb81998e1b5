package prep

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/itemset"
	"repro/internal/txdb"
)

// paperDB is the example transaction database from Table 1 of the paper,
// with a=0, b=1, c=2, d=3, e=4.
func paperDB() *txdb.DB {
	return txdb.FromInts(
		[]int{0, 1, 2},    // t1 = a b c
		[]int{0, 3, 4},    // t2 = a d e
		[]int{1, 2, 3},    // t3 = b c d
		[]int{0, 1, 2, 3}, // t4 = a b c d
		[]int{1, 2},       // t5 = b c
		[]int{0, 1, 3},    // t6 = a b d
		[]int{3, 4},       // t7 = d e
		[]int{2, 3, 4},    // t8 = c d e
	)
}

func randDB(rng *rand.Rand, items, n int, density float64) *txdb.DB {
	b := txdb.NewBuilder(n, 0)
	b.SetNumItems(items)
	for k := 0; k < n; k++ {
		var t itemset.Set
		for i := 0; i < items; i++ {
			if rng.Float64() < density {
				t = append(t, itemset.Item(i))
			}
		}
		b.AddSet(t)
	}
	return b.Build()
}

// rows materializes a prepared database's transactions for comparisons.
func rows(db *txdb.DB) []itemset.Set {
	out := make([]itemset.Set, db.NumTx())
	for k := range out {
		out[k] = db.Tx(k)
	}
	return out
}

func TestPrepareDropsInfrequent(t *testing.T) {
	db := paperDB()
	p := Prepare(db, 4, Config{Items: OrderAscFreq, Trans: OrderSizeAsc})
	// e has frequency 3 < 4 and must vanish.
	if p.DB.NumItems() != 4 {
		t.Fatalf("prepared universe = %d, want 4", p.DB.NumItems())
	}
	for _, orig := range p.Decode {
		if orig == 4 {
			t.Fatal("item e (4) should have been dropped")
		}
	}
	// Ascending frequency: a(4) < b(5) = c(5) < d(6); ties by original code.
	wantDecode := []itemset.Item{0, 1, 2, 3}
	if !reflect.DeepEqual(p.Decode, wantDecode) {
		t.Fatalf("decode = %v, want %v", p.Decode, wantDecode)
	}
	if !reflect.DeepEqual(p.Freq, []int{4, 5, 5, 6}) {
		t.Fatalf("freq = %v", p.Freq)
	}
	if p.OrigTransactions != 8 {
		t.Fatalf("OrigTransactions = %d", p.OrigTransactions)
	}
}

func TestPrepareDropsEmptyTransactions(t *testing.T) {
	db := txdb.FromInts([]int{0}, []int{1}, []int{0, 1}, []int{2})
	p := Prepare(db, 2, Config{Items: OrderAscFreq, Trans: OrderSizeAsc})
	// Item 2 is infrequent; its transaction becomes empty and is dropped.
	if p.DB.NumTx() != 3 {
		t.Fatalf("transactions = %d, want 3", p.DB.NumTx())
	}
	if p.OrigTransactions != 4 {
		t.Fatalf("OrigTransactions = %d, want 4", p.OrigTransactions)
	}
}

func TestPrepareTransactionOrder(t *testing.T) {
	db := txdb.FromInts([]int{0, 1, 2}, []int{0}, []int{1, 2}, []int{0, 2})
	p := Prepare(db, 1, Config{Items: OrderKeep, Trans: OrderSizeAsc})
	lens := []int{}
	for k := 0; k < p.DB.NumTx(); k++ {
		lens = append(lens, p.DB.Len(k))
	}
	if !reflect.DeepEqual(lens, []int{1, 2, 2, 3}) {
		t.Fatalf("lengths = %v", lens)
	}
	p = Prepare(db, 1, Config{Items: OrderKeep, Trans: OrderSizeDesc})
	lens = lens[:0]
	for k := 0; k < p.DB.NumTx(); k++ {
		lens = append(lens, p.DB.Len(k))
	}
	if !reflect.DeepEqual(lens, []int{3, 2, 2, 1}) {
		t.Fatalf("desc lengths = %v", lens)
	}
}

func TestPrepareItemOrderAsc(t *testing.T) {
	// freq: 0 -> 3, 1 -> 1, 2 -> 2
	db := txdb.FromInts([]int{0}, []int{0, 2}, []int{0, 1, 2})
	p := Prepare(db, 1, Config{Items: OrderAscFreq, Trans: OrderOriginal})
	// rarest first: item 1 (freq 1) -> code 0, item 2 -> code 1, item 0 -> 2.
	want := []itemset.Item{1, 2, 0}
	if !reflect.DeepEqual(p.Decode, want) {
		t.Fatalf("decode = %v, want %v", p.Decode, want)
	}
	// Transactions recoded and kept canonical.
	if !p.DB.Tx(2).Equal(itemset.FromInts(0, 1, 2)) {
		t.Fatalf("recoded transaction = %v", p.DB.Tx(2))
	}
	if !p.DB.Tx(1).Equal(itemset.FromInts(1, 2)) {
		t.Fatalf("recoded transaction = %v", p.DB.Tx(1))
	}
}

func TestPrepareItemOrderDesc(t *testing.T) {
	db := txdb.FromInts([]int{0}, []int{0, 2}, []int{0, 1, 2})
	p := Prepare(db, 1, Config{Items: OrderDescFreq, Trans: OrderOriginal})
	want := []itemset.Item{0, 2, 1}
	if !reflect.DeepEqual(p.Decode, want) {
		t.Fatalf("decode = %v, want %v", p.Decode, want)
	}
}

func TestDecodeSetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		db := randDB(rng, 15, 12, 0.35)
		p := Prepare(db, 2, Config{Items: OrderAscFreq, Trans: OrderSizeAsc})
		for _, tr := range rows(p.DB) {
			dec := p.DecodeSet(tr)
			if !dec.IsCanonical() {
				t.Fatalf("decoded set not canonical: %v", dec)
			}
			if len(dec) != len(tr) {
				t.Fatalf("decode changed length")
			}
			// Every decoded transaction must be a subset of some original.
			found := false
			for k := 0; k < db.NumTx(); k++ {
				if dec.SubsetOf(db.Tx(k)) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("decoded transaction %v not a subset of any original", dec)
			}
		}
	}
}

// TestDecodeSetAllocs: DecodeSet allocates its result and nothing else.
// Miners call it once per reported pattern; a reflection-based sort there
// (sort.Slice's closure and swapper) costs two more allocations a call.
func TestDecodeSetAllocs(t *testing.T) {
	p := Prepare(randDB(rand.New(rand.NewSource(3)), 40, 200, 0.3), 2, Config{Items: OrderAscFreq, Trans: OrderOriginal})
	all := make(itemset.Set, len(p.Decode))
	for i := range all {
		all[i] = itemset.Item(i)
	}
	allocs := testing.AllocsPerRun(100, func() { p.DecodeSet(all) })
	if allocs != 1 {
		t.Fatalf("DecodeSet of %d items allocated %.0f times, want 1", len(all), allocs)
	}
}

func TestPrepareMinSupportBelowOne(t *testing.T) {
	db := paperDB()
	a := Prepare(db, 0, Config{Items: OrderKeep, Trans: OrderOriginal})
	b := Prepare(db, 1, Config{Items: OrderKeep, Trans: OrderOriginal})
	if !reflect.DeepEqual(rows(a.DB), rows(b.DB)) {
		t.Fatal("minsup 0 should behave like 1")
	}
}

func TestPrepareMergeDuplicates(t *testing.T) {
	db := txdb.FromInts(
		[]int{0, 1},
		[]int{0, 1},
		[]int{1, 2},
		[]int{0, 1},
	)
	p := Prepare(txdb.MergeDuplicates(db), 1, Config{Items: OrderKeep, Trans: OrderOriginal})
	if p.DB.NumTx() != 2 {
		t.Fatalf("merged transactions = %d, want 2", p.DB.NumTx())
	}
	if p.DB.TotalWeight() != 4 {
		t.Fatalf("total weight = %d, want 4", p.DB.TotalWeight())
	}
	if got := p.DB.Weight(0); got != 3 {
		t.Fatalf("weight of merged row = %d, want 3", got)
	}
	// Frequencies stay multiset-exact: item 1 occurs in all four rows.
	if p.Freq[1] != 4 {
		t.Fatalf("freq[1] = %d, want 4", p.Freq[1])
	}
	if p.OrigTransactions != 4 {
		t.Fatalf("OrigTransactions = %d, want 4", p.OrigTransactions)
	}
}

// TestPrepareAllocs pins the allocation budget of the builder pipeline: a
// Prepare pass over an already-columnar database must materialize the
// output exactly once (the flat columns plus the fixed per-run tables) and
// never allocate per transaction. The budget is generous enough for the
// deliberate one-off allocations (columns, permutations, frequency and
// code tables) yet far below one allocation per row, so any reintroduced
// per-transaction copy trips it immediately.
func TestPrepareAllocs(t *testing.T) {
	const rows, items = 2000, 40
	rng := rand.New(rand.NewSource(11))
	b := txdb.NewBuilder(rows, rows*8)
	for k := 0; k < rows; k++ {
		var row []int
		for i := 0; i < items; i++ {
			if rng.Float64() < 0.2 {
				row = append(row, i)
			}
		}
		if len(row) == 0 {
			row = append(row, k%items)
		}
		b.AddInts(row...)
	}
	db := b.Build()
	allocs := testing.AllocsPerRun(10, func() {
		Prepare(db, 2, Config{Items: OrderAscFreq, Trans: OrderSizeAsc})
	})
	// See PrepAllocBudget for the rationale; the CI smoke step enforces
	// this same bound on every push.
	t.Logf("Prepare: %.0f allocs for %d rows (budget %d)", allocs, rows, PrepAllocBudget)
	if allocs > PrepAllocBudget {
		t.Fatalf("Prepare allocated %.0f times for %d rows, budget %d", allocs, rows, PrepAllocBudget)
	}
}

func TestLexDescLess(t *testing.T) {
	// With descending item listings: {d,c} vs {d,b}: d==d, then c>b so
	// {d,b} < {d,c}.
	a := itemset.FromInts(1, 3) // listed desc: 3,1
	b := itemset.FromInts(2, 3) // listed desc: 3,2
	if lexDescCompare(a, b) >= 0 {
		t.Error("{3,1} should come before {3,2}")
	}
	if lexDescCompare(b, a) <= 0 {
		t.Error("comparison should be asymmetric")
	}
	if lexDescCompare(a, a) != 0 {
		t.Error("a set should equal itself")
	}
	// A proper prefix of the descending listing comes first: {3} < {1,3}.
	if p := itemset.FromInts(3); lexDescCompare(p, a) >= 0 || lexDescCompare(a, p) <= 0 {
		t.Error("{3} should come before {3,1}")
	}
}

func TestConfigString(t *testing.T) {
	c := Config{Items: OrderDescFreq, Trans: OrderOriginal}
	if c.String() != "items:desc-freq trans:original" {
		t.Fatalf("Config.String() = %q", c.String())
	}
	if ItemOrder(9).String() != "items:9" || TransOrder(9).String() != "trans:9" {
		t.Fatal("fallback order strings")
	}
}
