package tidset

import (
	"fmt"
	"math/rand"
	"testing"
)

// naiveIntersect is the reference: a plain sorted-list merge.
func naiveIntersect(a, b []int32) []int32 {
	out := []int32{}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

func tidsEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// forceDense builds a Dense set regardless of thresholds.
func forceDense(u Universe, tids []int32) Set {
	words := make([]uint64, u.words())
	for _, t := range tids {
		words[t>>6] |= 1 << (uint(t) & 63)
	}
	return Set{rep: Dense, card: len(tids), weight: u.WeightOf(tids), words: words}
}

// forceDiff builds a Diff set holding tids as members, anchored at
// parent (which must be Sparse and a superset of tids).
func forceDiff(u Universe, parent *Set, tids []int32) Set {
	if parent.rep != Sparse {
		panic("forceDiff: parent must be Sparse")
	}
	diff := []int32{}
	j := 0
	for _, t := range parent.tids {
		if j < len(tids) && tids[j] == t {
			j++
			continue
		}
		diff = append(diff, t)
	}
	if j != len(tids) {
		panic("forceDiff: tids not a subset of parent")
	}
	return Set{rep: Diff, card: len(tids), weight: u.WeightOf(tids), tids: diff, parent: parent}
}

// asRep returns s's members re-packaged in the requested representation.
// For Diff the given parent anchors the set.
func asRep(u Universe, r Rep, tids []int32, parent *Set) Set {
	switch r {
	case Sparse:
		return u.FromSorted(tids)
	case Dense:
		return forceDense(u, tids)
	default:
		return forceDiff(u, parent, tids)
	}
}

// randomSubset draws each of the n tids with probability p.
func randomSubset(rng *rand.Rand, n int, p float64) []int32 {
	out := []int32{}
	for t := 0; t < n; t++ {
		if rng.Float64() < p {
			out = append(out, int32(t))
		}
	}
	return out
}

// checkPair intersects a×b in every representation pair under the given
// bound and cross-checks result tids, weighted support, and the
// early-stop verdict against the naive merge.
func checkPair(t *testing.T, u Universe, atids, btids []int32, bound int) {
	t.Helper()
	want := naiveIntersect(atids, btids)
	wantW := u.WeightOf(want)
	wantOK := bound <= 0 || wantW >= bound

	// Shared Sparse parents for the Diff variants: the operands
	// themselves, and one common superset for the diff-of-diffs path.
	aset, bset := u.FromSorted(atids), u.FromSorted(btids)
	unionTids := naiveUnion(atids, btids)
	shared := u.FromSorted(unionTids)

	reps := []Rep{Sparse, Dense, Diff}
	for _, ra := range reps {
		for _, rb := range reps {
			for variant := 0; variant < 2; variant++ {
				if variant == 1 && (ra != Diff || rb != Diff) {
					continue // shared-parent variant only matters for diff×diff
				}
				pa, pb := &aset, &bset
				if variant == 1 {
					pa, pb = &shared, &shared
				}
				a := asRep(u, ra, atids, pa)
				b := asRep(u, rb, btids, pb)
				name := fmt.Sprintf("%v×%v/v%d/bound=%d", ra, rb, variant, bound)

				k := NewKernel(u)
				ar := k.Level(0)
				got, ok := k.Intersect(ar, &a, &b, bound)
				if ok != wantOK {
					t.Fatalf("%s: ok=%v, want %v (support %d)", name, ok, wantOK, wantW)
				}
				if !ok {
					continue
				}
				if got.Support() != wantW {
					t.Errorf("%s: support=%d, want %d", name, got.Support(), wantW)
				}
				if got.Card() != len(want) {
					t.Errorf("%s: card=%d, want %d", name, got.Card(), len(want))
				}
				if gt := got.AppendTids(nil); !tidsEqual(gt, want) {
					t.Errorf("%s: tids=%v, want %v", name, gt, want)
				}
				if st := k.DrainStats(); st.Isects != 1 {
					t.Errorf("%s: Isects=%d, want 1", name, st.Isects)
				}

				// The flat kernel must agree and never emit Diff.
				fk := NewFlatKernel(u)
				fgot, fok := fk.Intersect(fk.Level(0), &a, &b, bound)
				if !fok {
					t.Fatalf("%s: flat kernel ok=false, want true", name)
				}
				if fgot.Rep() == Diff {
					t.Errorf("%s: flat kernel emitted a Diff result", name)
				}
				if fgot.Support() != wantW || !tidsEqual(fgot.AppendTids(nil), want) {
					t.Errorf("%s: flat kernel disagrees", name)
				}
			}
		}
	}
}

func naiveUnion(a, b []int32) []int32 {
	out := []int32{}
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func testUniverse(n int, weighted bool, rng *rand.Rand) Universe {
	u := Universe{N: n}
	if weighted {
		u.W = make([]int32, n)
		for i := range u.W {
			u.W[i] = int32(1 + rng.Intn(5))
		}
	}
	return u
}

func TestKernelCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{1, 7, 64, 100, 256, 700, 2048}
	densities := []float64{0, 0.01, 0.1, 0.5, 0.95, 1}
	for _, n := range sizes {
		for _, weighted := range []bool{false, true} {
			u := testUniverse(n, weighted, rng)
			for _, da := range densities {
				for _, db := range densities {
					atids := randomSubset(rng, n, da)
					btids := randomSubset(rng, n, db)
					want := naiveIntersect(atids, btids)
					wantW := u.WeightOf(want)
					for _, bound := range []int{0, 1, wantW, wantW + 1, wantW * 2} {
						checkPair(t, u, atids, btids, bound)
						_ = bound
					}
				}
			}
		}
	}
}

// TestKernelSkewed exercises the galloping path: one long list against
// tiny ones, in both operand orders, with and without early stopping.
func TestKernelSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 4096
	for _, weighted := range []bool{false, true} {
		u := testUniverse(n, weighted, rng)
		long := randomSubset(rng, n, 0.6)
		for _, shortLen := range []int{0, 1, 3, 17} {
			short := randomSubset(rng, n, float64(shortLen)/float64(n))
			want := naiveIntersect(long, short)
			wantW := u.WeightOf(want)
			for _, bound := range []int{0, 1, wantW, wantW + 1} {
				checkPair(t, u, long, short, bound)
				checkPair(t, u, short, long, bound)
			}
		}
	}
}

// TestKernelEdgeCases pins empty and full-universe operands.
func TestKernelEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 63, 64, 65, 300} {
		for _, weighted := range []bool{false, true} {
			u := testUniverse(n, weighted, rng)
			full := make([]int32, n)
			for i := range full {
				full[i] = int32(i)
			}
			empty := []int32{}
			half := randomSubset(rng, n, 0.5)
			for _, pair := range [][2][]int32{
				{empty, empty}, {empty, full}, {full, empty},
				{full, full}, {full, half}, {half, full}, {empty, half},
			} {
				for _, bound := range []int{0, 1, n, n + 1} {
					checkPair(t, u, pair[0], pair[1], bound)
				}
			}
		}
	}
}

// TestDiffChainStaysShallow verifies that repeated intersections never
// chain Diff parents: a Diff result's parent is always Sparse, so
// materialization is one merge regardless of recursion depth.
func TestDiffChainStaysShallow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	u := testUniverse(1000, true, rng)
	k := NewKernel(u)

	base := u.FromSorted(randomSubset(rng, u.N, 0.9))
	cur := &base
	ref := append([]int32(nil), base.tids...)
	sets := make([]*Set, 0, 8) // keep results alive and unmoved
	for depth := 1; depth <= 8; depth++ {
		// Drop a few members via a near-full second operand.
		other := u.FromSorted(randomSubset(rng, u.N, 0.98))
		got, ok := k.Intersect(k.Level(depth), cur, &other, 0)
		if !ok {
			t.Fatal("unbounded intersect reported below-threshold")
		}
		ref = naiveIntersect(ref, other.tids)
		if !tidsEqual(got.AppendTids(nil), ref) {
			t.Fatalf("depth %d: wrong members", depth)
		}
		if got.Rep() == Diff && got.parent.rep != Sparse {
			t.Fatalf("depth %d: Diff parent has rep %v, want Sparse", depth, got.parent.rep)
		}
		s := got
		sets = append(sets, &s)
		cur = &s
	}
}

// TestPromote pins the long-lived base-set promotion thresholds.
func TestPromote(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	u := Universe{N: 1024}
	dense := u.FromSorted(randomSubset(rng, u.N, 0.5))
	if p := u.Promote(dense); p.Rep() != Dense {
		t.Errorf("dense set not promoted: rep %v", p.Rep())
	} else if p.Support() != dense.Support() || p.Card() != dense.Card() {
		t.Errorf("promotion changed support/card")
	} else if !tidsEqual(p.AppendTids(nil), dense.tids) {
		t.Errorf("promotion changed members")
	}
	sparse := u.FromSorted(randomSubset(rng, u.N, 0.01))
	if p := u.Promote(sparse); p.Rep() != Sparse {
		t.Errorf("sparse set promoted: rep %v", p.Rep())
	}
	small := Universe{N: 100}
	if p := small.Promote(small.FromSorted(randomSubset(rng, 100, 0.9))); p.Rep() != Sparse {
		t.Errorf("small-universe set promoted: rep %v", p.Rep())
	}
}

// TestKernelStats verifies the early-stop and switch counters move when
// they should.
func TestKernelStats(t *testing.T) {
	u := Universe{N: 2048}
	k := NewKernel(u)
	ar := k.Level(0)

	// Disjoint halves: must stop before finishing under a high bound.
	lo := make([]int32, 1024)
	hi := make([]int32, 1024)
	for i := range lo {
		lo[i], hi[i] = int32(i), int32(1024+i)
	}
	a, b := u.FromSorted(lo), u.FromSorted(hi)
	if _, ok := k.Intersect(ar, &a, &b, 1000); ok {
		t.Fatal("disjoint intersect reported ok")
	}
	if st := k.DrainStats(); st.EarlyStops != 1 || st.Isects != 1 {
		t.Errorf("stats after early stop: %+v", st)
	}

	// A dense-dense result demoted to sparse counts a switch.
	da, db := forceDense(u, lo), forceDense(u, naiveIntersect(lo, []int32{0, 1, 2}))
	if got, ok := k.Intersect(ar, &da, &db, 0); !ok || got.Rep() != Sparse {
		t.Fatalf("expected sparse demotion, got rep %v ok=%v", got.Rep(), ok)
	}
	if st := k.DrainStats(); st.Switches == 0 {
		t.Errorf("demotion did not count a switch: %+v", st)
	}
}

// TestTidSum checks TidSum against the sum of AppendTids for every
// representation: Sparse lists, Dense bitmaps (universes with a partial
// last word, and the empty set) and Diff sets over a Sparse parent.
func TestTidSum(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 63, 64, 65, 100, 1000, 4099} {
		u := Universe{N: n}
		for _, p := range []float64{0, 0.05, 0.5, 0.97, 1} {
			parentTids := randomSubset(rng, n, p)
			tids := []int32{}
			for _, t := range parentTids {
				if rng.Float64() < 0.8 {
					tids = append(tids, t)
				}
			}
			var want int64
			for _, t := range tids {
				want += int64(t)
			}
			parent := u.FromSorted(parentTids)
			for _, r := range []Rep{Sparse, Dense, Diff} {
				s := asRep(u, r, tids, &parent)
				var got int64
				for _, t := range s.AppendTids(nil) {
					got += int64(t)
				}
				if got != want {
					t.Fatalf("n=%d p=%v %v: AppendTids sums to %d, want %d", n, p, r, got, want)
				}
				if sum := s.TidSum(); sum != want {
					t.Errorf("n=%d p=%v %v: TidSum = %d, want %d", n, p, r, sum, want)
				}
			}
		}
	}
}
