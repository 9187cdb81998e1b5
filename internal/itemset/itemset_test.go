package itemset

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewCanonicalizes(t *testing.T) {
	tests := []struct {
		name string
		in   []Item
		want Set
	}{
		{"empty", nil, Set{}},
		{"single", []Item{3}, Set{3}},
		{"sorted", []Item{1, 2, 3}, Set{1, 2, 3}},
		{"reversed", []Item{3, 2, 1}, Set{1, 2, 3}},
		{"dups", []Item{5, 1, 5, 1, 5}, Set{1, 5}},
		{"all same", []Item{7, 7, 7}, Set{7}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := New(tc.in...)
			if !got.Equal(tc.want) {
				t.Fatalf("New(%v) = %v, want %v", tc.in, got, tc.want)
			}
			if !got.IsCanonical() {
				t.Fatalf("New(%v) = %v is not canonical", tc.in, got)
			}
		})
	}
}

func TestContains(t *testing.T) {
	s := FromInts(1, 3, 5, 9, 100)
	for _, x := range []Item{1, 3, 5, 9, 100} {
		if !s.Contains(x) {
			t.Errorf("Contains(%d) = false, want true", x)
		}
	}
	for _, x := range []Item{0, 2, 4, 6, 10, 99, 101} {
		if s.Contains(x) {
			t.Errorf("Contains(%d) = true, want false", x)
		}
	}
	var empty Set
	if empty.Contains(1) {
		t.Error("empty set should contain nothing")
	}
}

func TestSubsetOf(t *testing.T) {
	tests := []struct {
		a, b Set
		want bool
	}{
		{FromInts(), FromInts(), true},
		{FromInts(), FromInts(1, 2), true},
		{FromInts(1), FromInts(1, 2), true},
		{FromInts(2), FromInts(1, 2), true},
		{FromInts(1, 2), FromInts(1, 2), true},
		{FromInts(1, 3), FromInts(1, 2), false},
		{FromInts(1, 2, 3), FromInts(1, 2), false},
		{FromInts(0), FromInts(1, 2), false},
		{FromInts(1, 5, 9), FromInts(0, 1, 2, 5, 8, 9, 10), true},
	}
	for _, tc := range tests {
		if got := tc.a.SubsetOf(tc.b); got != tc.want {
			t.Errorf("%v.SubsetOf(%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestProperSubsetOf(t *testing.T) {
	a := FromInts(1, 2)
	if a.ProperSubsetOf(a) {
		t.Error("a set is not a proper subset of itself")
	}
	if !FromInts(1).ProperSubsetOf(a) {
		t.Error("{1} should be a proper subset of {1,2}")
	}
}

func TestIntersectUnionMinus(t *testing.T) {
	a := FromInts(1, 2, 4, 6, 8)
	b := FromInts(2, 3, 4, 8, 9)
	if got := a.Intersect(b); !got.Equal(FromInts(2, 4, 8)) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Union(b); !got.Equal(FromInts(1, 2, 3, 4, 6, 8, 9)) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Minus(b); !got.Equal(FromInts(1, 6)) {
		t.Errorf("Minus = %v", got)
	}
	if got := b.Minus(a); !got.Equal(FromInts(3, 9)) {
		t.Errorf("Minus = %v", got)
	}
}

func TestIntersectInto(t *testing.T) {
	a := FromInts(1, 2, 3, 4)
	b := FromInts(2, 4, 6)
	buf := make(Set, 0, 8)
	got := a.IntersectInto(buf, b)
	if !got.Equal(FromInts(2, 4)) {
		t.Errorf("IntersectInto = %v", got)
	}
	// Reuse must reset the buffer.
	got = a.IntersectInto(got, FromInts(3))
	if !got.Equal(FromInts(3)) {
		t.Errorf("IntersectInto reuse = %v", got)
	}
}

func TestWithItem(t *testing.T) {
	s := FromInts(1, 5)
	for _, tc := range []struct {
		x    Item
		want Set
	}{
		{0, FromInts(0, 1, 5)},
		{3, FromInts(1, 3, 5)},
		{9, FromInts(1, 5, 9)},
		{5, FromInts(1, 5)},
		{1, FromInts(1, 5)},
	} {
		if got := s.WithItem(tc.x); !got.Equal(tc.want) {
			t.Errorf("WithItem(%d) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if !s.Equal(FromInts(1, 5)) {
		t.Error("WithItem must not modify the receiver")
	}
}

func TestKeyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(20)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item(rng.Intn(200000))
		}
		s := New(items...)
		got := ParseKey(s.Key())
		if len(s) == 0 {
			if len(got) != 0 {
				t.Fatalf("ParseKey of empty key = %v", got)
			}
			continue
		}
		if !got.Equal(s) {
			t.Fatalf("round trip %v -> %q -> %v", s, s.Key(), got)
		}
	}
}

func TestKeyUnique(t *testing.T) {
	seen := map[string]Set{}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(6)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item(rng.Intn(12))
		}
		s := New(items...)
		k := s.Key()
		if prev, ok := seen[k]; ok && !prev.Equal(s) {
			t.Fatalf("key collision: %v and %v both map to %q", prev, s, k)
		}
		seen[k] = s
	}
}

func TestCompare(t *testing.T) {
	tests := []struct {
		a, b Set
		want int
	}{
		{FromInts(), FromInts(), 0},
		{FromInts(1), FromInts(), 1},
		{FromInts(), FromInts(1), -1},
		{FromInts(1, 2), FromInts(1, 3), -1},
		{FromInts(1, 3), FromInts(1, 2), 1},
		{FromInts(1, 2), FromInts(1, 2), 0},
		{FromInts(9), FromInts(1, 2), -1}, // shorter first
	}
	for _, tc := range tests {
		if got := Compare(tc.a, tc.b); got != tc.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestString(t *testing.T) {
	if got := FromInts(3, 1, 2).String(); got != "{1 2 3}" {
		t.Errorf("String = %q", got)
	}
	if got := (Set{}).String(); got != "{}" {
		t.Errorf("String = %q", got)
	}
}

// randSet is a helper generating random canonical sets for property tests.
func randSet(rng *rand.Rand, universe, maxLen int) Set {
	n := rng.Intn(maxLen + 1)
	items := make([]Item, n)
	for i := range items {
		items[i] = Item(rng.Intn(universe))
	}
	return New(items...)
}

func TestPropertyIntersection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		a := randSet(rng, 40, 15)
		b := randSet(rng, 40, 15)
		c := randSet(rng, 40, 15)
		ab := a.Intersect(b)
		// Commutative.
		if !ab.Equal(b.Intersect(a)) {
			t.Fatalf("intersection not commutative: %v %v", a, b)
		}
		// Associative.
		if !ab.Intersect(c).Equal(a.Intersect(b.Intersect(c))) {
			t.Fatalf("intersection not associative: %v %v %v", a, b, c)
		}
		// Result is a subset of both.
		if !ab.SubsetOf(a) || !ab.SubsetOf(b) {
			t.Fatalf("intersection not a subset: %v ∩ %v = %v", a, b, ab)
		}
		// Idempotent.
		if !a.Intersect(a).Equal(a) {
			t.Fatalf("intersection not idempotent: %v", a)
		}
		// Absorption with union.
		if !a.Intersect(a.Union(b)).Equal(a) {
			t.Fatalf("absorption failed: %v %v", a, b)
		}
	}
}

func TestPropertyMinusPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		a := randSet(rng, 30, 12)
		b := randSet(rng, 30, 12)
		inter := a.Intersect(b)
		diff := a.Minus(b)
		// a = (a∩b) ∪ (a\b), disjointly.
		if !inter.Union(diff).Equal(a) {
			t.Fatalf("partition failed: %v %v", a, b)
		}
		if len(inter.Intersect(diff)) != 0 {
			t.Fatalf("partition overlaps: %v %v", a, b)
		}
	}
}

func TestQuickSubsetTransitive(t *testing.T) {
	f := func(xs, ys, zs []uint8) bool {
		toSet := func(v []uint8) Set {
			items := make([]Item, len(v))
			for i, x := range v {
				items[i] = Item(x % 24)
			}
			return New(items...)
		}
		a, b := toSet(xs), toSet(ys)
		c := b.Union(toSet(zs))
		// a∩b ⊆ b ⊆ c, so a∩b ⊆ c.
		return a.Intersect(b).SubsetOf(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickKeyInjective(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		toSet := func(v []uint16) Set {
			items := make([]Item, len(v))
			for i, x := range v {
				items[i] = Item(x)
			}
			return New(items...)
		}
		a, b := toSet(xs), toSet(ys)
		if a.Equal(b) {
			return a.Key() == b.Key()
		}
		return a.Key() != b.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromInts(1, 2, 3)
	c := a.Clone()
	c[0] = 99
	if a[0] != 1 {
		t.Error("Clone shares storage")
	}
	var nilSet Set
	if nilSet.Clone() != nil {
		t.Error("Clone(nil) should be nil")
	}
}

func TestSortStability(t *testing.T) {
	// Compare must induce a strict weak ordering usable with sort.Slice.
	sets := []Set{FromInts(2), FromInts(1, 2), FromInts(), FromInts(1), FromInts(0, 9)}
	sort.Slice(sets, func(i, j int) bool { return Compare(sets[i], sets[j]) < 0 })
	want := []Set{FromInts(), FromInts(1), FromInts(2), FromInts(0, 9), FromInts(1, 2)}
	if !reflect.DeepEqual(sets, want) {
		t.Errorf("sorted = %v, want %v", sets, want)
	}
}
