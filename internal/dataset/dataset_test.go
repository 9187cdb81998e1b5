package dataset

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/itemset"
	"repro/internal/txdb"
)

// table1 is the example transaction database from Table 1 of the paper in
// FIMI form with item names; first appearance codes a..e as 0..4.
const table1 = "a b c\na d e\nb c d\na b c d\nb c\na b d\nd e\nc d e\n"

func mustRead(t *testing.T, in string) *txdb.DB {
	t.Helper()
	db, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func rows(db *txdb.DB) []itemset.Set {
	out := make([]itemset.Set, db.NumTx())
	for k := range out {
		out[k] = db.Tx(k)
	}
	return out
}

func TestNewUniverse(t *testing.T) {
	// The numeric universe is the smallest one containing every code.
	if db := mustRead(t, "0 5\n2\n"); db.NumItems() != 6 {
		t.Fatalf("NumItems = %d, want 6", db.NumItems())
	}
}

func TestValidate(t *testing.T) {
	for _, in := range []string{table1, "1 5 3\n\n2 2 4\n", "x\n\n1 x\n", ""} {
		db := mustRead(t, in)
		if err := txdb.Validate(db); err != nil {
			t.Fatalf("Read(%q) built an invalid store: %v", in, err)
		}
		if db.Names() != nil && len(db.Names()) != db.NumItems() {
			t.Fatalf("Read(%q): %d names for %d items", in, len(db.Names()), db.NumItems())
		}
	}
}

func TestItemFrequencies(t *testing.T) {
	got := mustRead(t, table1).ItemFreqs()
	want := []int{4, 5, 5, 6, 3} // a,b,c,d,e per Table 1's first row counters
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("frequencies = %v, want %v", got, want)
	}
}

func TestMatrixEmpty(t *testing.T) {
	for _, in := range []string{"", "# only a comment\n"} {
		db := mustRead(t, in)
		if m := db.Matrix(); db.NumItems() != 0 || m.N != 0 || len(m.M) != 0 {
			t.Fatalf("Read(%q): %d items, %d matrix rows; want an empty store", in, db.NumItems(), m.N)
		}
	}
}

// TestMatrixPaperTable1: the table view of Table 1 read from FIMI text is
// the paper's matrix exactly.
func TestMatrixPaperTable1(t *testing.T) {
	m := mustRead(t, table1).Matrix()
	want := [][]int32{
		{4, 5, 5, 0, 0},
		{3, 0, 0, 6, 3},
		{0, 4, 4, 5, 0},
		{2, 3, 3, 4, 0},
		{0, 2, 2, 0, 0},
		{1, 1, 0, 3, 0},
		{0, 0, 0, 2, 2},
		{0, 0, 1, 1, 1},
	}
	if !reflect.DeepEqual(m.M, want) {
		t.Fatalf("matrix =\n%v\nwant\n%v", m.M, want)
	}
}

// readBack writes db as FIMI text and reads it again.
func readBack(t *testing.T, db *txdb.DB) *txdb.DB {
	t.Helper()
	var sb strings.Builder
	if err := Write(&sb, db); err != nil {
		t.Fatal(err)
	}
	return mustRead(t, sb.String())
}

func TestQuickMatrixDefinition(t *testing.T) {
	// Property: the matrix entries of a store read from text satisfy their
	// defining equation.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := readBack(t, randDB(rng, 8, 9, 0.4))
		m := db.Matrix()
		for k := 0; k < m.N; k++ {
			for i := 0; i < db.NumItems(); i++ {
				want := int32(0)
				if db.Tx(k).Contains(itemset.Item(i)) {
					for j := k; j < m.N; j++ {
						if db.Tx(j).Contains(itemset.Item(i)) {
							want++
						}
					}
				}
				if m.M[k][i] != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickVerticalDefinition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := readBack(t, randDB(rng, 10, 12, 0.35))
		v := db.Vertical()
		for i := 0; i < db.NumItems(); i++ {
			var want []int32
			for k := 0; k < db.NumTx(); k++ {
				if db.Tx(k).Contains(itemset.Item(i)) {
					want = append(want, int32(k))
				}
			}
			if len(want) != len(v.Tids[i]) {
				return false
			}
			for j := range want {
				if want[j] != v.Tids[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestVertical(t *testing.T) {
	// Rows keep their input order, so the tid lists are Table 1's.
	v := mustRead(t, table1).Vertical()
	want := [][]int32{
		{0, 1, 3, 5},    // a
		{0, 2, 3, 4, 5}, // b
		{0, 2, 3, 4, 7}, // c
		{1, 2, 3, 5, 6, 7},
		{1, 6, 7},
	}
	if !reflect.DeepEqual(v.Tids, want) {
		t.Fatalf("vertical = %v, want %v", v.Tids, want)
	}
}

func TestTranspose(t *testing.T) {
	// Transposing a named store drops the names column: the result's
	// items are the original rows, written as codes.
	tr := mustRead(t, "x y\ny z\n").Transpose()
	if tr.Names() != nil {
		t.Fatalf("transposed names = %q, want none", tr.Names())
	}
	var sb strings.Builder
	if err := Write(&sb, tr); err != nil {
		t.Fatal(err)
	}
	if want := "0\n0 1\n1\n"; sb.String() != want {
		t.Fatalf("transposed text = %q, want %q", sb.String(), want)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		db := readBack(t, randDB(rng, 12, 10, 0.4))
		back := db.Transpose().Transpose()
		// Transpose keeps empty rows, so transposing twice restores the
		// store exactly (universe and all transactions).
		if back.NumItems() != db.NumItems() {
			t.Fatalf("universe changed: %d -> %d", db.NumItems(), back.NumItems())
		}
		if !reflect.DeepEqual(rows(back), rows(db)) {
			t.Fatalf("transpose² rows = %v, want %v", rows(back), rows(db))
		}
	}
}

func TestStats(t *testing.T) {
	// Blank lines are empty transactions; comment lines are not.
	s := mustRead(t, "a b\n\n# comment\nb\n").Stats()
	if s.Transactions != 3 || s.Items != 2 || s.UsedItems != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MinLen != 0 || s.MaxLen != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestReadNumeric(t *testing.T) {
	db := mustRead(t, "1 5 3\n\n2 2 4\n# comment\n0\n")
	if db.NumItems() != 6 || db.Names() != nil {
		t.Fatalf("NumItems = %d, Names = %q", db.NumItems(), db.Names())
	}
	want := []itemset.Set{
		itemset.FromInts(1, 3, 5),
		{},
		itemset.FromInts(2, 4), // duplicate item collapsed
		itemset.FromInts(0),
	}
	if !reflect.DeepEqual(rows(db), want) {
		t.Fatalf("trans = %v, want %v", rows(db), want)
	}
}

// TestReadNamed: one non-numeric token anywhere makes every token a name,
// including numeric ones read before it, with codes in first-appearance
// order and the numeric spelling kept verbatim.
func TestReadNamed(t *testing.T) {
	for _, tc := range []struct {
		in    string
		names []string
		rows  []itemset.Set
	}{
		{"bread milk\nmilk butter\n", []string{"bread", "milk", "butter"},
			[]itemset.Set{itemset.FromInts(0, 1), itemset.FromInts(1, 2)}},
		{"07 7 -1\n# 9\n\n7 x 99999999999\n", []string{"07", "7", "-1", "x", "99999999999"},
			[]itemset.Set{itemset.FromInts(0, 1, 2), {}, itemset.FromInts(1, 3, 4)}},
	} {
		db := mustRead(t, tc.in)
		if !reflect.DeepEqual(db.Names(), tc.names) || !reflect.DeepEqual(rows(db), tc.rows) {
			t.Fatalf("Read(%q): names %q rows %v, want %q %v", tc.in, db.Names(), rows(db), tc.names, tc.rows)
		}
	}
}

// TestReadRejectsNegative: content errors of numeric input name their
// line, comment lines counted.
func TestReadRejectsNegative(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"1 -2\n", "dataset: line 1: negative item -2"},
		{"# c\n1 -2\n", "dataset: line 2: negative item -2"},
		{"0\n\n2147483648\n", "dataset: line 3: item 2147483648 exceeds the item code range"},
	} {
		if _, err := Read(strings.NewReader(tc.in)); fmt.Sprint(err) != tc.want {
			t.Errorf("Read(%q) error = %v, want %q", tc.in, err, tc.want)
		}
	}
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

func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		db := randDB(rng, 20, 15, 0.3)
		var sb strings.Builder
		if err := Write(&sb, db); err != nil {
			t.Fatal(err)
		}
		back := mustRead(t, sb.String())
		if !reflect.DeepEqual(rows(back), rows(db)) {
			t.Fatalf("rows %v != %v", rows(back), rows(db))
		}
	}
	// A weighted row is written once per unit of weight.
	b := txdb.NewBuilder(0, 0)
	b.AddWeighted(itemset.FromInts(1, 2), 3)
	var sb strings.Builder
	if err := Write(&sb, b.Build()); err != nil {
		t.Fatal(err)
	}
	if want := "1 2\n1 2\n1 2\n"; sb.String() != want {
		t.Fatalf("weighted text = %q, want %q", sb.String(), want)
	}
}

// TestWriteBadNameCode: an item code outside the name table, or a row
// whose leading name would read back as a comment, must surface as a
// descriptive error, not a panic or silently lost rows.
func TestWriteBadNameCode(t *testing.T) {
	b := txdb.NewBuilder(0, 0)
	b.SetNames([]string{"a", "b"}) // code 2 has no name
	b.AddInts(0, 1, 2)
	var sb strings.Builder
	err := Write(&sb, b.Build())
	if err == nil {
		t.Fatal("expected error for item code outside the name table")
	}
	for _, frag := range []string{"transaction 0", "item code 2", "2 names"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not mention %q", err, frag)
		}
	}
	if err := Write(&sb, mustRead(t, "a #b\nc #b\n")); err == nil || !strings.Contains(err.Error(), "transaction 1") {
		t.Fatalf("row led by a '#' name: err = %v", err)
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/db.dat"
	if err := os.WriteFile(path, []byte(table1), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, db); err != nil {
		t.Fatal(err)
	}
	if buf.String() != table1 {
		t.Fatalf("written text = %q, want %q", buf.String(), table1)
	}
	if _, err := ReadFile(dir + "/missing.dat"); err == nil {
		t.Fatal("expected error for missing file")
	}
}

// ReadAllocBudget is the checked-in allocation budget for one Read of the
// 2 000-row numeric input of TestReadAllocs. The input passes through one
// buffer sized from the reader's length, into store columns pre-sized
// from byte counts, so the only allocations are those few columns, the
// parser and the row scratch's growth (11 at the last count); one
// allocation per line or per token blows far past it.
const ReadAllocBudget = 16

// TestReadAllocs bounds Read's allocations in count and in bytes: at most
// twice the input (the buffer, the row offsets) plus 4 B per token (the
// item ids).
func TestReadAllocs(t *testing.T) {
	const n, items = 2000, 40
	rng := rand.New(rand.NewSource(12))
	var buf bytes.Buffer
	if err := Write(&buf, randDB(rng, items, n, 0.2)); err != nil {
		t.Fatal(err)
	}
	input := buf.Bytes()
	read := func() {
		if _, err := Read(bytes.NewReader(input)); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, read)
	t.Logf("Read: %.0f allocs for %d rows, %d bytes (budget %d)", allocs, n, len(input), ReadAllocBudget)
	if allocs > ReadAllocBudget {
		t.Fatalf("Read allocated %.0f times for %d rows, budget %d", allocs, n, ReadAllocBudget)
	}

	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	tokens := len(bytes.Fields(input))
	limit := uint64(2*len(input) + 4*tokens)
	t.Logf("Read: %d B allocated for %d bytes, %d tokens (bound %d)", got, len(input), tokens, limit)
	if got > limit {
		t.Fatalf("Read allocated %d B for %d bytes and %d tokens, bound %d", got, len(input), tokens, limit)
	}
}
