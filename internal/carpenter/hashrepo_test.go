package carpenter

import (
	"math/rand"
	"testing"

	"repro/internal/naive"
	"repro/internal/result"
)

// TestHashRepositoryEquivalence: the repository layout is an
// implementation detail and must never change the mined sets.
func TestHashRepositoryEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(209))
	for trial := 0; trial < 50; trial++ {
		db := randDB(rng, 2+rng.Intn(9), 2+rng.Intn(12), 0.2+rng.Float64()*0.5)
		minsup := 1 + rng.Intn(3)
		want, err := naive.ClosedByTransactionSubsets(db, minsup)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []Variant{Lists, Table} {
			var got result.Set
			err := mineWith(db, minsup, carpPrep, v, false, true, nil, got.Collect())
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("%v hash repo mismatch (minsup=%d db=%v):\n%s", v, minsup, db, got.Diff(want, 10))
			}
		}
	}
}
