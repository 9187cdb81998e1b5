// Package itemset provides the item and item set representations shared by
// all mining algorithms in this repository.
//
// An item is a small non-negative integer code. A Set is a strictly
// ascending slice of item codes; keeping sets sorted makes intersection,
// union and subset tests linear merges and gives every set a unique
// canonical form, which the repositories and result collectors rely on.
package itemset

import (
	"fmt"
	"sort"
	"strings"
)

// Item is an item code. Codes are assigned by dataset preprocessing and are
// dense (0..Items-1). int32 keeps vertical representations and matrices
// compact even for very wide databases (the thrombin data set the paper
// uses has 139,351 items).
type Item = int32

// Set is an item set in canonical form: item codes strictly ascending.
type Set []Item

// New returns a canonical Set built from the given items. The input is
// copied, sorted and deduplicated.
func New(items ...Item) Set {
	s := make(Set, len(items))
	copy(s, items)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return dedupSorted(s)
}

// FromInts is a convenience constructor used heavily in tests.
func FromInts(items ...int) Set {
	s := make(Set, len(items))
	for i, v := range items {
		s[i] = Item(v)
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return dedupSorted(s)
}

func dedupSorted(s Set) Set {
	if len(s) < 2 {
		return s
	}
	w := 1
	for r := 1; r < len(s); r++ {
		if s[r] != s[w-1] {
			s[w] = s[r]
			w++
		}
	}
	return s[:w]
}

// IsCanonical reports whether s is strictly ascending.
func (s Set) IsCanonical() bool {
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	if s == nil {
		return nil
	}
	c := make(Set, len(s))
	copy(c, s)
	return c
}

// Contains reports whether s contains item x.
func (s Set) Contains(x Item) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == x
}

// Equal reports whether s and t hold exactly the same items.
func (s Set) Equal(t Set) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every item of s is contained in t.
func (s Set) SubsetOf(t Set) bool {
	if len(s) > len(t) {
		return false
	}
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] == t[j]:
			i++
			j++
		case s[i] > t[j]:
			j++
		default: // s[i] < t[j]: item missing from t
			return false
		}
	}
	return i == len(s)
}

// ProperSubsetOf reports whether s ⊊ t.
func (s Set) ProperSubsetOf(t Set) bool {
	return len(s) < len(t) && s.SubsetOf(t)
}

// Intersect returns the intersection of s and t as a fresh Set.
func (s Set) Intersect(t Set) Set {
	n := len(s)
	if len(t) < n {
		n = len(t)
	}
	out := make(Set, 0, n)
	return appendIntersect(out, s, t)
}

// IntersectInto computes the intersection of s and t into dst (which is
// reset first) and returns it. It lets hot loops reuse buffers.
func (s Set) IntersectInto(dst Set, t Set) Set {
	return appendIntersect(dst[:0], s, t)
}

func appendIntersect(out, s, t Set) Set {
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		a, b := s[i], t[j]
		switch {
		case a == b:
			out = append(out, a)
			i++
			j++
		case a < b:
			i++
		default:
			j++
		}
	}
	return out
}

// Union returns the union of s and t as a fresh Set.
func (s Set) Union(t Set) Set {
	out := make(Set, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		a, b := s[i], t[j]
		switch {
		case a == b:
			out = append(out, a)
			i++
			j++
		case a < b:
			out = append(out, a)
			i++
		default:
			out = append(out, b)
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// Minus returns s \ t as a fresh Set.
func (s Set) Minus(t Set) Set {
	out := make(Set, 0, len(s))
	i, j := 0, 0
	for i < len(s) {
		if j >= len(t) || s[i] < t[j] {
			out = append(out, s[i])
			i++
		} else if s[i] == t[j] {
			i++
			j++
		} else {
			j++
		}
	}
	return out
}

// WithItem returns a fresh Set equal to s ∪ {x}.
func (s Set) WithItem(x Item) Set {
	out := make(Set, 0, len(s)+1)
	i := 0
	for i < len(s) && s[i] < x {
		out = append(out, s[i])
		i++
	}
	out = append(out, x)
	if i < len(s) && s[i] == x {
		i++
	}
	out = append(out, s[i:]...)
	return out
}

// Key returns a compact string key uniquely identifying the set. It is
// suitable as a map key (hash repositories, dedup, test diffing).
func (s Set) Key() string {
	if len(s) == 0 {
		return ""
	}
	// Variable-length little-endian delta encoding: compact and unique.
	var b strings.Builder
	b.Grow(len(s) * 2)
	prev := Item(-1)
	for _, x := range s {
		d := uint32(x - prev) // ≥ 1 because strictly ascending
		prev = x
		for d >= 0x80 {
			b.WriteByte(byte(d) | 0x80)
			d >>= 7
		}
		b.WriteByte(byte(d))
	}
	return b.String()
}

// ParseKey reverses Key. It is used by the flat cumulative baseline, which
// stores its repository in a hash map keyed by Key.
func ParseKey(k string) Set {
	var out Set
	prev := Item(-1)
	var d uint32
	var shift uint
	for i := 0; i < len(k); i++ {
		c := k[i]
		d |= uint32(c&0x7f) << shift
		if c&0x80 != 0 {
			shift += 7
			continue
		}
		prev += Item(d)
		out = append(out, prev)
		d, shift = 0, 0
	}
	return out
}

// String renders the set like "{1 4 7}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, x := range s {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", x)
	}
	b.WriteByte('}')
	return b.String()
}

// Compare orders sets first by length, then lexicographically. It gives the
// canonical order used by result sets so outputs of different algorithms
// can be compared element-wise.
func Compare(a, b Set) int {
	if len(a) != len(b) {
		if len(a) < len(b) {
			return -1
		}
		return 1
	}
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}
