package fim

import (
	"testing"

	"repro/internal/naive"
	"repro/internal/result"
)

// FuzzMinerAgreement decodes fuzz bytes into a small transaction database
// (at most 12 items) and checks every registered miner, on every target it
// declares, against the brute-force oracles: ClosedByItemSubsets for
// closed, FrequentByItemSubsets for all, and the maximal sets of the
// closed oracle for maximal. Both parallel engines (sharded IsTa and
// branch-parallel Carpenter-table) must reproduce the closed oracle too.
// Any divergence is a bug in a miner.
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

		closed, err := naive.ClosedByItemSubsets(db, minsup)
		if err != nil {
			t.Fatal(err)
		}
		all, err := naive.FrequentByItemSubsets(db, minsup)
		if err != nil {
			t.Fatal(err)
		}
		want := map[Target]*ResultSet{
			TargetClosed:  closed,
			TargetAll:     all,
			TargetMaximal: result.FilterMaximal(closed),
		}
		for _, info := range AlgorithmInfos() {
			for _, target := range info.Targets {
				var got ResultSet
				if err := Mine(db, Options{MinSupport: minsup, Algorithm: info.Name, Target: target}, got.Collect()); err != nil {
					t.Fatalf("%s %s: %v", info.Name, target, err)
				}
				if !got.Equal(want[target]) {
					t.Fatalf("%s %s disagrees with the oracle (minsup=%d, db=%v):\n%s",
						info.Name, target, minsup, db, got.Diff(want[target], 10))
				}
			}
		}
		for _, algo := range []Algorithm{IsTa, CarpenterTable} {
			var par ResultSet
			if err := Mine(db, Options{MinSupport: minsup, Algorithm: algo, Parallelism: 3}, par.Collect()); err != nil {
				t.Fatalf("parallel %s: %v", algo, err)
			}
			if !par.Equal(closed) {
				t.Fatalf("parallel %s disagrees with the oracle (minsup=%d, db=%v):\n%s",
					algo, minsup, db, par.Diff(closed, 10))
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
