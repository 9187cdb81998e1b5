package result

import (
	"math/rand"
	"testing"

	"repro/internal/itemset"
	"repro/internal/txdb"
)

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

// TestClosureOperatorLaws checks that the compound map f∘g of the Galois
// connection in §2.5 of the paper is a closure operator: extensive
// (I ⊆ closure(I)), monotone (I ⊆ J ⇒ closure(I) ⊆ closure(J)), and
// idempotent (closure(closure(I)) = closure(I)).
func TestClosureOperatorLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 200; trial++ {
		db := randDB(rng, 10, 8, 0.4)
		i := randSet(rng, 10, 4)
		j := i.Union(randSet(rng, 10, 3))

		ci, okI := Closure(db, i)
		cj, okJ := Closure(db, j)
		if !okI {
			// Nothing contains i; the closure is undefined, as is j's if
			// j ⊇ i.
			continue
		}
		// Extensive.
		if !i.SubsetOf(ci) {
			t.Fatalf("closure not extensive: %v -> %v", i, ci)
		}
		// Monotone (where defined).
		if okJ && !ci.SubsetOf(cj) {
			t.Fatalf("closure not monotone: cl(%v)=%v, cl(%v)=%v", i, ci, j, cj)
		}
		// Idempotent.
		cci, ok := Closure(db, ci)
		if !ok || !cci.Equal(ci) {
			t.Fatalf("closure not idempotent: %v -> %v -> %v", i, ci, cci)
		}
		// The closure has the same cover (hence support).
		if Support(db, i) != Support(db, ci) {
			t.Fatalf("closure changed support: %v (%d) -> %v (%d)",
				i, Support(db, i), ci, Support(db, ci))
		}
		// The closure is closed.
		if len(ci) > 0 && !IsClosed(db, ci) {
			t.Fatalf("closure %v of %v is not closed", ci, i)
		}
	}
}

// TestClosedIffNoPerfectExtension cross-checks the two characterizations
// of closedness in §2.3/§2.4: an item set with non-empty cover is closed
// iff it has no perfect extension (no item outside it contained in every
// covering transaction).
func TestClosedIffNoPerfectExtension(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for trial := 0; trial < 200; trial++ {
		db := randDB(rng, 9, 8, 0.4)
		s := randSet(rng, 9, 4)
		if len(s) == 0 || Support(db, s) == 0 {
			continue
		}
		perfect := false
		for i := 0; i < db.NumItems(); i++ {
			it := itemset.Item(i)
			if s.Contains(it) {
				continue
			}
			if Support(db, s.WithItem(it)) == Support(db, s) {
				perfect = true
				break
			}
		}
		if got := IsClosed(db, s); got == perfect {
			t.Fatalf("closed=%v but perfect-extension=%v for %v in %v", got, perfect, s, db)
		}
	}
}
