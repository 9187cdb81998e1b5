package rules

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/itemset"
	"repro/internal/naive"
	"repro/internal/result"
	"repro/internal/txdb"
)

func paperDB() *txdb.DB {
	return txdb.FromInts(
		[]int{0, 1, 2},
		[]int{0, 3, 4},
		[]int{1, 2, 3},
		[]int{0, 1, 2, 3},
		[]int{1, 2},
		[]int{0, 1, 3},
		[]int{3, 4},
		[]int{2, 3, 4},
	)
}

func closedSet(t *testing.T, db *txdb.DB, minsup int) *result.Set {
	t.Helper()
	s, err := naive.ClosedByTransactionSubsets(db, minsup)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestIndexSupport(t *testing.T) {
	db := paperDB()
	closed := closedSet(t, db, 1)
	idx := NewIndex(closed, db.NumTx())
	rng := rand.New(rand.NewSource(71))
	// For every item set with non-zero support, the index must return the
	// exact support (closed sets preserve all support information at
	// minsup 1).
	for trial := 0; trial < 300; trial++ {
		var items itemset.Set
		for i := 0; i < 5; i++ {
			if rng.Intn(2) == 0 {
				items = append(items, itemset.Item(i))
			}
		}
		items = itemset.New(items...)
		want := result.Support(db, items)
		got, ok := idx.Support(items)
		if want == 0 {
			if ok {
				t.Fatalf("Support(%v) = %d, want absent", items, got)
			}
			continue
		}
		if !ok || got != want {
			t.Fatalf("Support(%v) = %d/%v, want %d", items, got, ok, want)
		}
	}
	if got, _ := idx.Support(nil); got != 8 {
		t.Fatalf("empty set support = %d", got)
	}
	if idx.Total() != 8 {
		t.Fatalf("Total = %d", idx.Total())
	}
}

func TestFromClosedConfidences(t *testing.T) {
	db := paperDB()
	closed := closedSet(t, db, 1)
	rulesOut := FromClosed(closed, db.NumTx(), Options{MinConfidence: 0.0})
	if len(rulesOut) == 0 {
		t.Fatal("no rules generated")
	}
	// Every rule's numbers must match direct computation.
	for _, r := range rulesOut {
		union := r.Antecedent.Union(r.Consequent)
		supp := result.Support(db, union)
		if supp != r.Support {
			t.Fatalf("rule %v: support %d, want %d", r, r.Support, supp)
		}
		anteSupp := result.Support(db, r.Antecedent)
		wantConf := float64(supp) / float64(anteSupp)
		if math.Abs(wantConf-r.Confidence) > 1e-9 {
			t.Fatalf("rule %v: confidence %f, want %f", r, r.Confidence, wantConf)
		}
		consSupp := result.Support(db, r.Consequent)
		wantLift := wantConf / (float64(consSupp) / 8.0)
		if math.Abs(wantLift-r.Lift) > 1e-9 {
			t.Fatalf("rule %v: lift %f, want %f", r, r.Lift, wantLift)
		}
	}
	// Sorted by descending confidence.
	for i := 1; i < len(rulesOut); i++ {
		if rulesOut[i].Confidence > rulesOut[i-1].Confidence+1e-12 {
			t.Fatal("rules not sorted by confidence")
		}
	}
}

func TestMinConfidenceFilter(t *testing.T) {
	db := paperDB()
	closed := closedSet(t, db, 1)
	all := FromClosed(closed, db.NumTx(), Options{MinConfidence: 0})
	strict := FromClosed(closed, db.NumTx(), Options{MinConfidence: 0.9})
	if len(strict) >= len(all) {
		t.Fatal("confidence filter should remove rules")
	}
	for _, r := range strict {
		if r.Confidence < 0.9 {
			t.Fatalf("rule %v below threshold", r)
		}
	}
	// {d,e} is closed with support 3; {e} has support 3, so e → d has
	// confidence 1.
	foundED := false
	for _, r := range strict {
		if r.Antecedent.Equal(itemset.FromInts(4)) && r.Consequent.Equal(itemset.FromInts(3)) {
			foundED = true
			if r.Confidence != 1.0 || r.Support != 3 {
				t.Fatalf("e→d rule wrong: %v", r)
			}
		}
	}
	if !foundED {
		t.Fatal("expected rule e → d with confidence 1")
	}
}

func TestMinLiftFilter(t *testing.T) {
	db := paperDB()
	closed := closedSet(t, db, 1)
	lifted := FromClosed(closed, db.NumTx(), Options{MinConfidence: 0, MinLift: 1.2})
	for _, r := range lifted {
		if r.Lift < 1.2 {
			t.Fatalf("rule %v below lift threshold", r)
		}
	}
}

func TestMultiItemConsequents(t *testing.T) {
	db := paperDB()
	closed := closedSet(t, db, 1)
	single := FromClosed(closed, db.NumTx(), Options{MinConfidence: 0})
	multi := FromClosed(closed, db.NumTx(), Options{MinConfidence: 0, MaxConsequentItems: 2})
	if len(multi) <= len(single) {
		t.Fatal("two-item consequents should add rules")
	}
	hasTwo := false
	for _, r := range multi {
		if len(r.Consequent) == 2 {
			hasTwo = true
			if len(r.Antecedent) == 0 {
				t.Fatal("empty antecedent emitted")
			}
		}
	}
	if !hasTwo {
		t.Fatal("no two-item consequent generated")
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{
		Antecedent: itemset.FromInts(1),
		Consequent: itemset.FromInts(2),
		Support:    3, Confidence: 0.75, Lift: 1.5,
	}
	if r.String() != "{1} -> {2} (supp=3 conf=0.750 lift=1.500)" {
		t.Fatalf("String = %q", r.String())
	}
}
