package result

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/itemset"
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

func TestSupport(t *testing.T) {
	db := paperDB()
	tests := []struct {
		items itemset.Set
		want  int
	}{
		{itemset.FromInts(), 8},
		{itemset.FromInts(0), 4},
		{itemset.FromInts(3), 6},
		{itemset.FromInts(1, 2), 4},
		{itemset.FromInts(0, 1, 2), 2},
		{itemset.FromInts(0, 4), 1},
		{itemset.FromInts(0, 1, 2, 3, 4), 0},
	}
	for _, tc := range tests {
		if got := Support(db, tc.items); got != tc.want {
			t.Errorf("Support(%v) = %d, want %d", tc.items, got, tc.want)
		}
	}
}

func TestClosureAndIsClosed(t *testing.T) {
	db := paperDB()
	// {b} appears in t1,t3,t4,t5,t6; intersection = {b} — closed? t1∩t3 =
	// {b,c}; all five: {a,b,c}∩{b,c,d}∩{a,b,c,d}∩{b,c}∩{a,b,d} = {b}. So {b}
	// is closed.
	clo, ok := Closure(db, itemset.FromInts(1))
	if !ok || !clo.Equal(itemset.FromInts(1)) {
		t.Fatalf("closure({b}) = %v, %v", clo, ok)
	}
	if !IsClosed(db, itemset.FromInts(1)) {
		t.Error("{b} should be closed")
	}
	// {c} occurs in t1,t3,t4,t5,t8: intersection = {c}; closed.
	if !IsClosed(db, itemset.FromInts(2)) {
		t.Error("{c} should be closed")
	}
	// {b,c} occurs in t1,t3,t4,t5 → intersection {b,c}: closed.
	if !IsClosed(db, itemset.FromInts(1, 2)) {
		t.Error("{b,c} should be closed")
	}
	// {a,c} occurs in t1,t4 → intersection {a,b,c}: not closed.
	if IsClosed(db, itemset.FromInts(0, 2)) {
		t.Error("{a,c} should not be closed")
	}
	clo, ok = Closure(db, itemset.FromInts(0, 2))
	if !ok || !clo.Equal(itemset.FromInts(0, 1, 2)) {
		t.Fatalf("closure({a,c}) = %v", clo)
	}
	// Empty cover.
	if _, ok := Closure(db, itemset.FromInts(0, 1, 2, 3, 4)); ok {
		t.Error("closure of uncovered set should report ok=false")
	}
	if IsClosed(db, itemset.FromInts()) {
		t.Error("the empty set is never reported as closed here")
	}
}

func TestSetSortEqualDiff(t *testing.T) {
	var a, b Set
	a.Add(itemset.FromInts(1, 2), 3)
	a.Add(itemset.FromInts(0), 5)
	b.Add(itemset.FromInts(0), 5)
	b.Add(itemset.FromInts(1, 2), 3)
	if !a.Equal(&b) {
		t.Fatalf("sets should be equal:\n%s", a.Diff(&b, 10))
	}
	b.Add(itemset.FromInts(9), 1)
	if a.Equal(&b) {
		t.Fatal("sets should differ")
	}
	d := a.Diff(&b, 10)
	if !strings.Contains(d, "only in B") {
		t.Fatalf("diff = %s", d)
	}
	var c Set
	c.Add(itemset.FromInts(0), 4) // support mismatch
	c.Add(itemset.FromInts(1, 2), 3)
	if a.Equal(&c) {
		t.Fatal("support mismatch must break equality")
	}
	if !strings.Contains(a.Diff(&c, 10), "support mismatch") {
		t.Fatal("diff should mention support mismatch")
	}
}

func TestCollectCopies(t *testing.T) {
	var s Set
	rep := s.Collect()
	buf := itemset.FromInts(1, 2)
	rep.Report(buf, 2)
	buf[0] = 9 // miner reuses its buffer
	if !s.Patterns[0].Items.Equal(itemset.FromInts(1, 2)) {
		t.Fatal("Collect must copy the reported items")
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Report(itemset.FromInts(1), 1)
	c.Report(itemset.FromInts(2), 1)
	if c.N != 2 {
		t.Fatalf("N = %d", c.N)
	}
}

func TestWrite(t *testing.T) {
	var s Set
	s.Add(itemset.FromInts(2, 0), 4)
	s.Add(itemset.FromInts(1), 7)
	var sb strings.Builder
	if err := s.Write(&sb, nil); err != nil {
		t.Fatal(err)
	}
	want := "1 (7)\n0 2 (4)\n"
	if sb.String() != want {
		t.Fatalf("Write = %q, want %q", sb.String(), want)
	}
	sb.Reset()
	if err := s.Write(&sb, []string{"a", "b", "c"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "a c (4)") {
		t.Fatalf("named Write = %q", sb.String())
	}
}

func TestVerify(t *testing.T) {
	db := paperDB()
	var good Set
	good.Add(itemset.FromInts(1), 5)
	good.Add(itemset.FromInts(1, 2), 4)
	if err := Verify(db, &good, 4); err != nil {
		t.Fatalf("Verify(good): %v", err)
	}

	var wrongSupp Set
	wrongSupp.Add(itemset.FromInts(1), 4)
	if err := Verify(db, &wrongSupp, 1); err == nil {
		t.Error("expected support mismatch error")
	}

	var notClosed Set
	notClosed.Add(itemset.FromInts(0, 2), 2)
	if err := Verify(db, &notClosed, 1); err == nil {
		t.Error("expected not-closed error")
	}

	var infrequent Set
	infrequent.Add(itemset.FromInts(1), 5)
	if err := Verify(db, &infrequent, 6); err == nil {
		t.Error("expected below-minimum error")
	}

	var dup Set
	dup.Add(itemset.FromInts(1), 5)
	dup.Add(itemset.FromInts(1), 5)
	if err := Verify(db, &dup, 1); err == nil {
		t.Error("expected duplicate error")
	}
}

func TestCFITreeBasics(t *testing.T) {
	var tr CFITree
	tr.Insert(itemset.FromInts(1, 3, 5), 4)
	tr.Insert(itemset.FromInts(2, 3), 6)
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
	tests := []struct {
		items itemset.Set
		supp  int
		want  bool
	}{
		{itemset.FromInts(1, 3, 5), 4, true},  // exact match
		{itemset.FromInts(3, 5), 4, true},     // subset of first
		{itemset.FromInts(1, 5), 4, true},     // subset with skip
		{itemset.FromInts(3), 6, true},        // subset of second
		{itemset.FromInts(3), 7, false},       // support too high
		{itemset.FromInts(1, 3, 5), 5, false}, // support too high
		{itemset.FromInts(1, 2), 1, false},    // not a subset of anything
		{itemset.FromInts(), 6, true},         // empty set subsumed by all
		{itemset.FromInts(5, 9), 1, false},
	}
	for _, tc := range tests {
		if got := tr.Subsumed(tc.items, tc.supp); got != tc.want {
			t.Errorf("Subsumed(%v, %d) = %v, want %v", tc.items, tc.supp, got, tc.want)
		}
	}
}

func TestCFITreeRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 80; trial++ {
		var tr CFITree
		type stored struct {
			s    itemset.Set
			supp int
		}
		var all []stored
		for i := 0; i < 30; i++ {
			s := randSet(rng, 16, 6)
			supp := 1 + rng.Intn(5)
			tr.Insert(s, supp)
			all = append(all, stored{s, supp})
		}
		for q := 0; q < 50; q++ {
			query := randSet(rng, 16, 5)
			supp := 1 + rng.Intn(5)
			want := false
			for _, st := range all {
				if st.supp >= supp && query.SubsetOf(st.s) {
					want = true
					break
				}
			}
			if got := tr.Subsumed(query, supp); got != want {
				t.Fatalf("Subsumed(%v, %d) = %v, want %v", query, supp, got, want)
			}
		}
	}
}

func randSet(rng *rand.Rand, universe, maxLen int) itemset.Set {
	n := rng.Intn(maxLen + 1)
	items := make([]itemset.Item, n)
	for i := range items {
		items[i] = itemset.Item(rng.Intn(universe))
	}
	return itemset.New(items...)
}

func TestSubsumeFilter(t *testing.T) {
	f := NewSubsumeFilter()
	f.Add(itemset.FromInts(1, 2), 3)
	f.Add(itemset.FromInts(1), 3)       // subsumed by {1,2} at support 3
	f.Add(itemset.FromInts(1), 5)       // survives: different support group
	f.Add(itemset.FromInts(1, 2, 4), 2) // survives
	f.Add(itemset.FromInts(2, 4), 2)    // subsumed
	f.Add(itemset.FromInts(1, 2), 3)    // duplicate, collapses
	var out Set
	f.Emit(out.Collect())
	var want Set
	want.Add(itemset.FromInts(1, 2), 3)
	want.Add(itemset.FromInts(1), 5)
	want.Add(itemset.FromInts(1, 2, 4), 2)
	if !out.Equal(&want) {
		t.Fatalf("filter output:\n%s", out.Diff(&want, 10))
	}
}

func TestSubsumeFilterRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 60; trial++ {
		f := NewSubsumeFilter()
		type cand struct {
			s    itemset.Set
			supp int
		}
		var cands []cand
		seen := map[string]bool{}
		for i := 0; i < 40; i++ {
			s := randSet(rng, 12, 5)
			supp := 1 + rng.Intn(4)
			f.Add(s, supp)
			k := s.Key() + "|" + string(rune('0'+supp))
			if !seen[k] {
				seen[k] = true
				cands = append(cands, cand{s, supp})
			}
		}
		var got Set
		f.Emit(got.Collect())
		var want Set
		for _, c := range cands {
			maximal := true
			for _, other := range cands {
				if other.supp == c.supp && c.s.ProperSubsetOf(other.s) {
					maximal = false
					break
				}
			}
			if maximal {
				want.Add(c.s, c.supp)
			}
		}
		if !got.Equal(&want) {
			t.Fatalf("filter mismatch:\n%s", got.Diff(&want, 10))
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	var s Set
	s.Add(itemset.FromInts(3, 17, 42), 8)
	s.Add(itemset.FromInts(0), 12)
	var sb strings.Builder
	if err := s.Write(&sb, nil); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(strings.NewReader(sb.String()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(&s) {
		t.Fatalf("round trip:\n%s", back.Diff(&s, 10))
	}
}

func TestParseNamed(t *testing.T) {
	names := []string{"bread", "milk", "beer"}
	var s Set
	s.Add(itemset.FromInts(0, 2), 5)
	var sb strings.Builder
	if err := s.Write(&sb, names); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(strings.NewReader(sb.String()), names)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(&s) {
		t.Fatalf("named round trip:\n%s", back.Diff(&s, 10))
	}
	if _, err := Parse(strings.NewReader("cheese (1)\n"), names); err == nil {
		t.Fatal("unknown name should fail")
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"1 2 3\n",    // no support
		"1 2 (x)\n",  // bad support
		"a b (3)\n",  // non-numeric without names
		"(4)\n",      // empty set
		"1 -2 (3)\n", // negative item
	} {
		if _, err := Parse(strings.NewReader(in), nil); err == nil {
			t.Errorf("input %q should fail", in)
		}
	}
	// Comments and blank lines are fine.
	s, err := Parse(strings.NewReader("# c\n\n1 (2)\n"), nil)
	if err != nil || s.Len() != 1 {
		t.Fatalf("comment handling: %v %d", err, s.Len())
	}
}
