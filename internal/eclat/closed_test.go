package eclat

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/itemset"
	"repro/internal/naive"
	"repro/internal/prep"
	"repro/internal/result"
	"repro/internal/txdb"
)

// TestClosedIndexCollision mines rows {a} {b} {b} {a} at minsup 2:
// tids(a) = {0, 3} and tids(b) = {1, 2} share the closed index key
// (card 2, tid sum 3), but neither set contains the other, so both are
// closed. The closed and maximal targets must report both, as the naive
// oracle does, on the rows as given and with duplicates merged.
func TestClosedIndexCollision(t *testing.T) {
	const a, b = 0, 1
	builder := txdb.NewBuilder(4, 4)
	builder.SetNumItems(2)
	for _, it := range []itemset.Item{a, b, b, a} {
		builder.AddSet(itemset.Set{it})
	}
	db := builder.Build()
	const minsup = 2

	// The premise: the prepared base sets of a and b collide.
	pre := prep.Prepare(db, minsup, prep.Config{Items: prep.OrderAscFreq, Trans: prep.OrderOriginal})
	sets := pre.DB.KernelSets()
	if len(sets) != 2 || sets[0].Card() != 2 || sets[1].Card() != 2 || sets[0].TidSum() != 3 || sets[1].TidSum() != 3 {
		t.Fatalf("base sets do not share the key (2, 3): %d sets", len(sets))
	}

	for _, form := range []struct {
		name string
		db   *txdb.DB
	}{{"unweighted", db}, {"merged", txdb.MergeDuplicates(db)}} {
		closed, err := naive.ClosedByTransactionSubsets(form.db, minsup)
		if err != nil {
			t.Fatal(err)
		}
		if closed.Len() != 2 {
			t.Fatalf("%s: oracle reports %d closed sets, want {a} and {b}", form.name, closed.Len())
		}
		for _, target := range []engine.Target{engine.Closed, engine.Maximal} {
			want := closed
			if target == engine.Maximal {
				want = result.FilterMaximal(closed)
			}
			var got result.Set
			if err := mine(form.db, minsup, target, nil, got.Collect()); err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Errorf("%s %v: eclat differs from the oracle:\n%s", form.name, target, got.Diff(want, 10))
			}
		}
	}
}
