package fim

import (
	"testing"
)

// FuzzMinerAgreement decodes fuzz bytes into a small transaction database
// and checks that two structurally unrelated closed-set miners — IsTa
// (transaction intersection) and LCM (item set enumeration) — produce the
// identical result. Any divergence is a bug in one of them.
func FuzzMinerAgreement(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 2, 3, 4, 0, 1, 3}, uint8(2))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{5, 5, 5, 0, 5}, uint8(1))
	f.Add([]byte{1, 0, 2, 0, 3, 0, 1, 2, 3}, uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, minsupRaw uint8) {
		if len(raw) > 512 {
			return // keep the search space small and runs fast
		}
		db := fuzzDB(raw)
		minsup := int(minsupRaw%6) + 1

		var ista, lcm, par ResultSet
		if err := Mine(db, Options{MinSupport: minsup, Algorithm: IsTa}, ista.Collect()); err != nil {
			t.Fatal(err)
		}
		if err := Mine(db, Options{MinSupport: minsup, Algorithm: LCM}, lcm.Collect()); err != nil {
			t.Fatal(err)
		}
		if !ista.Equal(&lcm) {
			t.Fatalf("IsTa and LCM disagree (minsup=%d, db=%v):\n%s",
				minsup, db, ista.Diff(&lcm, 10))
		}
		// The sharded parallel engine must reproduce the same set.
		if err := Mine(db, Options{MinSupport: minsup, Algorithm: IsTa, Parallelism: 3}, par.Collect()); err != nil {
			t.Fatal(err)
		}
		if !par.Equal(&ista) {
			t.Fatalf("parallel IsTa disagrees (minsup=%d, db=%v):\n%s",
				minsup, db, par.Diff(&ista, 10))
		}
		// Semantic spot checks on the agreed result.
		for _, p := range ista.Patterns {
			if p.Support < minsup {
				t.Fatalf("infrequent pattern reported: %v", p)
			}
			if !IsClosed(db, p.Items) {
				t.Fatalf("non-closed pattern reported: %v", p)
			}
		}
	})
}

// fuzzDB decodes bytes into a database: byte 0 separates transactions,
// other bytes are items mod 12.
func fuzzDB(raw []byte) *Database {
	var rows [][]int
	cur := []int{}
	for _, b := range raw {
		if b == 0 {
			rows = append(rows, cur)
			cur = []int{}
			continue
		}
		cur = append(cur, int(b%12))
	}
	rows = append(rows, cur)
	return NewDatabase(rows)
}
