package core

import (
	"math/rand"
	"testing"

	"repro/internal/itemset"
	"repro/internal/result"
)

// randSet draws a random non-empty canonical item set over 0..items-1.
func randSet(rng *rand.Rand, items int) itemset.Set {
	var raw []int
	for i := 0; i < items; i++ {
		if rng.Float64() < 0.5 {
			raw = append(raw, i)
		}
	}
	if len(raw) == 0 {
		raw = append(raw, rng.Intn(items))
	}
	return itemset.FromInts(raw...)
}

// TestAddWeightedEquivalence: AddWeighted(t, w) must leave the tree in
// exactly the state w consecutive AddTransaction(t) calls produce —
// identical node sets and supports, not just identical reports.
func TestAddWeightedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 80; trial++ {
		items := 3 + rng.Intn(8)
		steps := 1 + rng.Intn(10)

		weighted := NewTree(items)
		repeated := NewTree(items)
		for s := 0; s < steps; s++ {
			tr := randSet(rng, items)
			w := 1 + rng.Intn(4)
			weighted.AddWeighted(tr, w)
			for k := 0; k < w; k++ {
				repeated.AddTransaction(tr)
			}
		}
		got, want := flatten(weighted), flatten(repeated)
		if !mapsEqual(got, want) {
			t.Fatalf("trial %d: weighted tree %v, repeated tree %v", trial, got, want)
		}
	}
}

// TestAddWeightedReports cross-checks the reported closed sets of a
// weighted replay against mining the expanded multiset.
func TestAddWeightedReports(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 40; trial++ {
		items := 3 + rng.Intn(6)
		steps := 1 + rng.Intn(8)
		minsup := 1 + rng.Intn(4)

		weighted := NewTree(items)
		var expanded []itemset.Set
		for s := 0; s < steps; s++ {
			tr := randSet(rng, items)
			w := 1 + rng.Intn(3)
			weighted.AddWeighted(tr, w)
			for k := 0; k < w; k++ {
				expanded = append(expanded, tr)
			}
		}
		plain := NewTree(items)
		for _, tr := range expanded {
			plain.AddTransaction(tr)
		}
		var got, want result.Set
		weighted.Report(minsup, func(s itemset.Set, supp int) { got.Add(s, supp) })
		plain.Report(minsup, func(s itemset.Set, supp int) { want.Add(s, supp) })
		if !got.Equal(&want) {
			t.Fatalf("trial %d (minsup %d): %s", trial, minsup, got.Diff(&want, 10))
		}
	}
}

func TestAddWeightedIgnoresNonPositive(t *testing.T) {
	tree := NewTree(3)
	tree.AddWeighted(itemset.FromInts(0, 1), 0)
	tree.AddWeighted(itemset.FromInts(0, 1), -2)
	if tree.NodeCount() != 0 {
		t.Fatalf("non-positive weights must be no-ops, tree has %d nodes", tree.NodeCount())
	}
}

// TestWalkEnumeratesEveryNode: Walk must emit exactly the node sets the
// structural flatten helper sees, with the same supports.
func TestWalkEnumeratesEveryNode(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	tree := NewTree(8)
	for s := 0; s < 12; s++ {
		tree.AddTransaction(randSet(rng, 8))
	}
	got := map[string]int{}
	tree.Walk(func(s itemset.Set, supp int) {
		got[s.Key()] = supp
	})
	if want := flatten(tree); !mapsEqual(got, want) {
		t.Fatalf("Walk saw %v, want %v", got, want)
	}
}

// TestEmittedSlicesAreOwned pins the emit contract of Report and Walk:
// every items slice is newly allocated, so a caller may keep it without
// copying (parallel IsTa keeps its shard patterns and merge candidates).
// The slices kept from one pass must still match a second pass's copies
// after the traversal; a reused buffer would overwrite the kept ones.
func TestEmittedSlicesAreOwned(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	tree := NewTree(10)
	for s := 0; s < 30; s++ {
		tree.AddWeighted(randSet(rng, 10), 1+rng.Intn(3))
	}
	passes := map[string]func(emit func(itemset.Set, int)){
		"Report": func(emit func(itemset.Set, int)) { tree.Report(2, emit) },
		"Walk":   func(emit func(itemset.Set, int)) { tree.Walk(emit) },
	}
	for name, pass := range passes {
		var kept, copies []itemset.Set
		pass(func(s itemset.Set, _ int) { kept = append(kept, s) })
		pass(func(s itemset.Set, _ int) { copies = append(copies, s.Clone()) })
		if len(kept) < 2 || len(kept) != len(copies) {
			t.Fatalf("%s: %d kept sets, %d copies", name, len(kept), len(copies))
		}
		for i := range kept {
			if !kept[i].Equal(copies[i]) {
				t.Fatalf("%s: kept set %d is %v after the pass, emitted as %v", name, i, kept[i], copies[i])
			}
		}
	}
}

// TestReportAbortsPromptly is the regression test for the report-abort
// bug: a cancellation recorded during the report pass must unwind the
// traversal instead of visiting (and skipping) every remaining node.
func TestReportAbortsPromptly(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	// Dense-ish random data produces a tree with far more nodes than one
	// cancel interval, so a traversal that only skips emits (the old bug)
	// would still walk well past the cancellation point.
	db := randDB(rng, 80, 400, 0.2)
	tree := NewTree(db.NumItems())
	for k := 0; k < db.NumTx(); k++ {
		tree.AddTransaction(db.Tx(k))
	}
	if tree.NodeCount() <= 2*cancelInterval {
		t.Fatalf("workload too small to exercise the abort: %d nodes", tree.NodeCount())
	}

	emitted := 0
	stopAfter := 10
	canceled := false
	tree.SetCancel(func() bool { return canceled })
	tree.Report(1, func(itemset.Set, int) {
		emitted++
		if emitted == stopAfter {
			canceled = true
		}
	})
	if !tree.Aborted() {
		t.Fatal("report pass did not abort after the probe fired")
	}
	// The traversal may visit up to one cancel interval of nodes past the
	// cancellation point, but must not report the rest of the tree.
	if emitted > stopAfter+cancelInterval {
		t.Fatalf("report pass emitted %d sets after cancellation at %d", emitted, stopAfter)
	}
}
