package txdb_test

import (
	"bytes"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/txdb"
)

// FuzzDatasetRoundTrip drives arbitrary FIMI text through the full
// representation cycle — FIMI text → store → FIMI text → store — and
// checks nothing is gained, lost or reordered, item names included. A
// second leg merges duplicates before writing and checks the expanded
// multiset comes back (weights serialize as repetition).
func FuzzDatasetRoundTrip(f *testing.F) {
	f.Add("0 1 2\n0 2\n1 2\n")
	f.Add("\n\n")
	f.Add("3 3 1\n# comment\n2\n")
	f.Add("0 1\n0 1\n0 1\n2\n")
	f.Add("milk bread\nbread 7\n\nmilk bread\n")
	f.Fuzz(func(t *testing.T, text string) {
		db, err := dataset.Read(strings.NewReader(text))
		if err != nil {
			t.Skip() // malformed input (e.g. out-of-range numbers) is not this test's concern
		}
		if err := txdb.Validate(db); err != nil {
			t.Fatalf("store invalid: %v", err)
		}

		var buf bytes.Buffer
		if err := dataset.Write(&buf, db); err != nil {
			if strings.Contains(err.Error(), "read back as a comment") {
				t.Skip() // a row led by a '#' name has no FIMI form
			}
			t.Fatal(err)
		}
		back, err := dataset.Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round-tripped text does not parse: %v", err)
		}
		if back.NumTx() != db.NumTx() || back.NumItems() != db.NumItems() {
			t.Fatalf("shape changed: %d×%d -> %d×%d", db.NumTx(), db.NumItems(), back.NumTx(), back.NumItems())
		}
		if !slices.Equal(back.Names(), db.Names()) {
			t.Fatalf("names changed: %q -> %q", db.Names(), back.Names())
		}
		for k := 0; k < db.NumTx(); k++ {
			if !back.Tx(k).Equal(db.Tx(k)) {
				t.Fatalf("row %d changed: %v -> %v", k, db.Tx(k), back.Tx(k))
			}
		}

		// Merged leg: weights come back as repeated rows; compare as
		// sorted multisets since merging reorders occurrences.
		merged := txdb.MergeDuplicates(db)
		if merged.TotalWeight() != db.TotalWeight() {
			t.Fatalf("merge changed total weight: %d -> %d", db.TotalWeight(), merged.TotalWeight())
		}
		buf.Reset()
		if err := dataset.Write(&buf, merged); err != nil {
			t.Fatal(err)
		}
		expanded, err := dataset.Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("merged text does not parse: %v", err)
		}
		if expanded.NumTx() != db.NumTx() {
			t.Fatalf("expanded row count = %d, want %d", expanded.NumTx(), db.NumTx())
		}
		if !slices.Equal(expanded.Names(), db.Names()) {
			t.Fatalf("names changed after merge: %q -> %q", db.Names(), expanded.Names())
		}
		a := sortedRows(db)
		b := sortedRows(expanded)
		for k := range a {
			if !a[k].Equal(b[k]) {
				t.Fatalf("multiset changed after merge round trip at sorted row %d: %v vs %v", k, a[k], b[k])
			}
		}
	})
}

func sortedRows(db *txdb.DB) []itemset.Set {
	out := make([]itemset.Set, db.NumTx())
	for k := range out {
		out[k] = db.Tx(k)
	}
	sort.Slice(out, func(i, j int) bool { return itemset.Compare(out[i], out[j]) < 0 })
	return out
}
