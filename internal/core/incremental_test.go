package core

import (
	"math/rand"
	"testing"

	"repro/internal/naive"
)

// TestIncrementalMatchesOracleAtEveryPrefix is the defining property of
// the cumulative scheme: after each added transaction, the miner holds
// exactly the closed sets of the prefix processed so far.
func TestIncrementalMatchesOracleAtEveryPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	for trial := 0; trial < 30; trial++ {
		items := 3 + rng.Intn(7)
		n := 3 + rng.Intn(10)
		db := randDB(rng, items, n, 0.2+rng.Float64()*0.5)
		m := NewIncremental(items)
		for k := 0; k < db.NumTx(); k++ {
			if err := m.AddSet(db.Tx(k)); err != nil {
				t.Fatal(err)
			}
			if m.Transactions() != k+1 {
				t.Fatalf("Transactions = %d, want %d", m.Transactions(), k+1)
			}
			prefix := db.Slice(0, k+1)
			for _, minsup := range []int{1, 2} {
				want, err := naive.ClosedByTransactionSubsets(prefix, minsup)
				if err != nil {
					t.Fatal(err)
				}
				got := m.ClosedSet(minsup)
				if !got.Equal(want) {
					t.Fatalf("prefix %d minsup %d mismatch:\n%s", k+1, minsup, got.Diff(want, 10))
				}
			}
		}
	}
}

func TestIncrementalQueriesAreIdempotent(t *testing.T) {
	m := NewIncremental(5)
	for _, tr := range [][]int32{{0, 1, 2}, {1, 2, 3}, {0, 2, 4}} {
		if err := m.Add(tr...); err != nil {
			t.Fatal(err)
		}
	}
	a := m.ClosedSet(1)
	b := m.ClosedSet(1)
	if !a.Equal(b) {
		t.Fatal("repeated queries must return the same result")
	}
	// A higher threshold is a subset of the lower one.
	high := m.ClosedSet(2)
	if high.Len() >= a.Len() {
		t.Fatalf("threshold 2 (%d sets) should shrink the result (%d sets)", high.Len(), a.Len())
	}
}

func TestIncrementalValidation(t *testing.T) {
	m := NewIncremental(3)
	if err := m.Add(0, 5); err == nil {
		t.Fatal("expected out-of-universe error")
	}
	if err := m.AddSet([]int32{2, 1}); err == nil {
		t.Fatal("expected non-canonical error")
	}
	if err := m.Add(); err != nil {
		t.Fatalf("empty transaction should be accepted: %v", err)
	}
	if m.Transactions() != 1 {
		t.Fatalf("Transactions = %d", m.Transactions())
	}
	if m.NodeCount() != 0 {
		t.Fatalf("NodeCount = %d", m.NodeCount())
	}
}

func TestIncrementalUnsortedInput(t *testing.T) {
	m := NewIncremental(6)
	if err := m.Add(5, 1, 3, 1); err != nil { // duplicates + order fixed by Add
		t.Fatal(err)
	}
	got := m.ClosedSet(1)
	if got.Len() != 1 || !got.Patterns[0].Items.Equal([]int32{1, 3, 5}) {
		t.Fatalf("got %v", got.Patterns)
	}
}
