package result

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/itemset"
)

// cfiEntry is one stored (set, support) pair, as the brute-force oracle
// sees the repository.
type cfiEntry struct {
	s    itemset.Set
	supp int
}

// bruteSubsumed is the CFITree contract by definition: some stored Y ⊇ x
// (Y = x included) has support ≥ supp.
func bruteSubsumed(stored []cfiEntry, x itemset.Set, supp int) bool {
	for _, e := range stored {
		if e.supp >= supp && x.SubsetOf(e.s) {
			return true
		}
	}
	return false
}

// TestCFITreeLargeUniverse checks a repository the size of a real closed
// miner's against the brute-force scan: 300 items, about 2 000 stored sets
// of up to 12 items, some sets stored several times at different
// supports. Child lists get long here, so the ordered, early-exit search
// is exercised at every depth. Insertion runs in random, ascending and
// descending set order, so new children land in the middle, at the end
// and at the front of their lists.
func TestCFITreeLargeUniverse(t *testing.T) {
	const universe, nSets, maxLen = 300, 2000, 12
	rng := rand.New(rand.NewSource(19))
	var base []cfiEntry
	for len(base) < nSets {
		s := randSet(rng, universe, maxLen)
		base = append(base, cfiEntry{s, 1 + rng.Intn(20)})
		if rng.Intn(8) == 0 {
			// The same set again at other supports: the stored support
			// must end up the largest.
			for r := 1 + rng.Intn(3); r > 0; r-- {
				base = append(base, cfiEntry{s, 1 + rng.Intn(20)})
			}
		}
	}
	orders := []struct {
		name  string
		order func([]cfiEntry)
	}{
		{"random", func(e []cfiEntry) { rng.Shuffle(len(e), func(i, j int) { e[i], e[j] = e[j], e[i] }) }},
		{"ascending", func(e []cfiEntry) {
			sort.SliceStable(e, func(i, j int) bool { return itemset.CompareLex(e[i].s, e[j].s) < 0 })
		}},
		{"descending", func(e []cfiEntry) {
			sort.SliceStable(e, func(i, j int) bool { return itemset.CompareLex(e[i].s, e[j].s) > 0 })
		}},
	}
	for _, o := range orders {
		t.Run(o.name, func(t *testing.T) {
			entries := append([]cfiEntry(nil), base...)
			o.order(entries)
			var tr CFITree
			for _, e := range entries {
				tr.Insert(e.s, e.supp)
			}
			if tr.Len() != len(entries) {
				t.Fatalf("Len = %d, want %d", tr.Len(), len(entries))
			}
			hits := 0
			check := func(q itemset.Set, supp int) {
				t.Helper()
				want := bruteSubsumed(entries, q, supp)
				if got := tr.Subsumed(q, supp); got != want {
					t.Fatalf("Subsumed(%v, %d) = %v, want %v", q, supp, got, want)
				}
				if want {
					hits++
				}
			}
			for q := 0; q < 3000; q++ {
				// A subset (often a prefix or the whole set) of a stored
				// set, at supports around the stored one: hits and early
				// returns on the matching child.
				e := entries[rng.Intn(len(entries))]
				var sub itemset.Set
				for _, it := range e.s {
					if rng.Intn(3) != 0 {
						sub = append(sub, it)
					}
				}
				check(sub, max(1, e.supp-1+rng.Intn(3)))
				check(e.s, e.supp)
				// A random query: mostly misses, walked to the end.
				check(randSet(rng, universe, 6), 1+rng.Intn(20))
			}
			if hits < 3000 {
				t.Fatalf("only %d hits; the queries no longer exercise the matching paths", hits)
			}
		})
	}
}

// FuzzCFITree decodes bytes into a sequence of inserts and queries on a
// small universe and checks every query against the brute-force scan.
// Each operation reads an opcode byte, a length byte, that many item
// bytes and a support byte; an odd opcode is a query.
func FuzzCFITree(f *testing.F) {
	f.Add([]byte{0, 3, 1, 3, 5, 4, 0, 2, 2, 3, 6, 1, 2, 3, 5, 4, 1, 1, 3, 7})
	f.Add([]byte{0, 2, 9, 4, 1, 0, 2, 1, 2, 1, 1, 1, 4, 0, 1, 1, 9, 1, 1, 1, 1, 1, 0, 1})
	f.Add([]byte{2, 5, 10, 11, 12, 13, 14, 3, 3, 2, 10, 14, 3, 1, 2, 11, 13, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		const universe, maxLen, maxSupp = 24, 8, 8
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		var tr CFITree
		var stored []cfiEntry
		for len(data) > 0 {
			op := next()
			n := next() % (maxLen + 1)
			items := make([]itemset.Item, n)
			for i := range items {
				items[i] = itemset.Item(next() % universe)
			}
			s := itemset.New(items...)
			supp := 1 + next()%maxSupp
			if op%2 == 0 {
				tr.Insert(s, supp)
				stored = append(stored, cfiEntry{s, supp})
				continue
			}
			if got, want := tr.Subsumed(s, supp), bruteSubsumed(stored, s, supp); got != want {
				t.Fatalf("after %d inserts: Subsumed(%v, %d) = %v, want %v", len(stored), s, supp, got, want)
			}
		}
		if tr.Len() != len(stored) {
			t.Fatalf("Len = %d, want %d", tr.Len(), len(stored))
		}
	})
}
