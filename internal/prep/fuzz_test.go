package prep

import (
	"testing"

	"repro/internal/txdb"
)

// FuzzPrepareInvariants checks the preprocessing invariants on arbitrary
// databases decoded from fuzz bytes.
func FuzzPrepareInvariants(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 4, 5}, uint8(2))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{255, 0, 255, 0}, uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, minsupRaw uint8) {
		if len(raw) > 4096 {
			return
		}
		db := dbFromBytes(raw)
		minsup := int(minsupRaw%8) + 1
		p := Prepare(db, minsup, Config{Items: OrderAscFreq, Trans: OrderSizeAsc})
		if p.OrigTransactions != db.NumTx() {
			t.Fatalf("OrigTransactions = %d, want %d", p.OrigTransactions, db.NumTx())
		}
		if err := txdb.Validate(p.DB); err != nil {
			t.Fatalf("prepared db invalid: %v", err)
		}
		// Every surviving item is frequent, and frequencies are exact.
		freq := make([]int, p.DB.NumItems())
		for k := 0; k < p.DB.NumTx(); k++ {
			tr := p.DB.Tx(k)
			if len(tr) == 0 {
				t.Fatal("empty transaction survived preparation")
			}
			w := p.DB.Weight(k)
			for _, i := range tr {
				freq[i] += w
			}
		}
		for i, got := range freq {
			if p.Freq[i] < minsup {
				t.Fatalf("item %d kept with frequency %d < %d", i, p.Freq[i], minsup)
			}
			if got != p.Freq[i] {
				t.Fatalf("item %d: recorded freq %d, actual %d", i, p.Freq[i], got)
			}
		}
		// Decode is a bijection into the original universe.
		seen := map[int32]bool{}
		for _, orig := range p.Decode {
			if orig < 0 || int(orig) >= db.NumItems() || seen[orig] {
				t.Fatalf("decode not a bijection: %v", p.Decode)
			}
			seen[orig] = true
		}
	})
}

// dbFromBytes deterministically decodes fuzz bytes into a small database:
// each byte contributes an item (value mod 16); byte value 0 starts a new
// transaction.
func dbFromBytes(raw []byte) *txdb.DB {
	var rows [][]int
	cur := []int{}
	for _, b := range raw {
		if b == 0 {
			rows = append(rows, cur)
			cur = []int{}
			continue
		}
		cur = append(cur, int(b%16))
	}
	rows = append(rows, cur)
	return txdb.FromInts(rows...)
}
