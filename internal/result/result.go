// Package result holds the common output machinery of the miners: reported
// patterns, streaming reporters, canonical result sets that can be compared
// across algorithms, and verification helpers (closedness / frequency
// checks against the database, same-support subsumption filtering).
package result

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/itemset"
	"repro/internal/txdb"
)

// Pattern is one mined item set together with its absolute support.
type Pattern struct {
	Items   itemset.Set
	Support int
}

func (p Pattern) String() string {
	return fmt.Sprintf("%s (%d)", p.Items, p.Support)
}

// Reporter receives mined patterns as they are found. Implementations must
// treat the items slice as borrowed: it may be reused by the miner after
// Report returns.
type Reporter interface {
	Report(items itemset.Set, support int)
}

// ReporterFunc adapts a function to the Reporter interface.
type ReporterFunc func(items itemset.Set, support int)

// Report calls f.
func (f ReporterFunc) Report(items itemset.Set, support int) { f(items, support) }

// Counter is a Reporter that only counts patterns; the bench harness uses
// it so that timing excludes result materialization.
type Counter struct{ N int }

// Report increments the counter.
func (c *Counter) Report(itemset.Set, int) { c.N++ }

// Set is a collected, canonicalizable set of patterns.
type Set struct {
	Patterns []Pattern
	sorted   bool
}

// Collect returns a Reporter that appends (copies of) reported patterns to
// the set.
func (s *Set) Collect() Reporter {
	return ReporterFunc(func(items itemset.Set, support int) {
		s.Add(items, support)
	})
}

// Add copies the pattern into the set.
func (s *Set) Add(items itemset.Set, support int) {
	s.Patterns = append(s.Patterns, Pattern{Items: items.Clone(), Support: support})
	s.sorted = false
}

// Len returns the number of patterns.
func (s *Set) Len() int { return len(s.Patterns) }

// Sort puts the set into canonical order: by size, then lexicographically,
// then by support. Two equal result sets compare element-wise after Sort.
func (s *Set) Sort() {
	if s.sorted {
		return
	}
	slices.SortFunc(s.Patterns, func(a, b Pattern) int {
		if c := itemset.Compare(a.Items, b.Items); c != 0 {
			return c
		}
		return cmp.Compare(a.Support, b.Support)
	})
	s.sorted = true
}

// Equal reports whether s and t contain exactly the same patterns (item
// sets and supports). Both sets are sorted as a side effect.
func (s *Set) Equal(t *Set) bool {
	if s.Len() != t.Len() {
		return false
	}
	s.Sort()
	t.Sort()
	for i := range s.Patterns {
		if s.Patterns[i].Support != t.Patterns[i].Support ||
			!s.Patterns[i].Items.Equal(t.Patterns[i].Items) {
			return false
		}
	}
	return true
}

// Diff describes, for debugging and tests, how t differs from s: patterns
// only in s, only in t, and patterns present in both but with different
// support. At most max entries per category are rendered.
func (s *Set) Diff(t *Set, max int) string {
	s.Sort()
	t.Sort()
	key := func(p Pattern) string { return p.Items.Key() }
	sm := map[string]int{}
	for _, p := range s.Patterns {
		sm[key(p)] = p.Support
	}
	tm := map[string]int{}
	for _, p := range t.Patterns {
		tm[key(p)] = p.Support
	}
	var b strings.Builder
	miss, extra, diff := 0, 0, 0
	for _, p := range s.Patterns {
		if ts, ok := tm[key(p)]; !ok {
			if miss < max {
				fmt.Fprintf(&b, "  only in A: %s\n", p)
			}
			miss++
		} else if ts != p.Support {
			if diff < max {
				fmt.Fprintf(&b, "  support mismatch %s: A=%d B=%d\n", p.Items, p.Support, ts)
			}
			diff++
		}
	}
	for _, p := range t.Patterns {
		if _, ok := sm[key(p)]; !ok {
			if extra < max {
				fmt.Fprintf(&b, "  only in B: %s\n", p)
			}
			extra++
		}
	}
	fmt.Fprintf(&b, "  totals: A=%d B=%d onlyA=%d onlyB=%d suppDiff=%d", s.Len(), t.Len(), miss, extra, diff)
	return b.String()
}

// writeChunk is the size of the pieces Write hands to its writer.
const writeChunk = 64 << 10

// Write renders the set in Borgelt's output format: items separated by
// spaces, the support appended in parentheses, one pattern per line in
// canonical order. Items are written as names[code] when names is
// non-nil; a code outside names is an error. The text is built in one
// buffer and passed to w in pieces of about 64 KiB, so an unbuffered w
// (a terminal, a pipe) sees a few large writes, not one per pattern.
func (s *Set) Write(w io.Writer, names []string) error {
	s.Sort()
	// The slack holds the line that crosses writeChunk, so the buffer
	// grows only for a line longer than 4 KiB.
	buf := make([]byte, 0, writeChunk+4<<10)
	for _, p := range s.Patterns {
		var err error
		if buf, err = itemset.AppendText(buf, p.Items, names); err != nil {
			return fmt.Errorf("result: pattern %s: %w", p.Items, err)
		}
		buf = append(buf, " ("...)
		buf = strconv.AppendInt(buf, int64(p.Support), 10)
		buf = append(buf, ")\n"...)
		if len(buf) >= writeChunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) == 0 {
		return nil
	}
	_, err := w.Write(buf)
	return err
}

// Support computes the absolute (weighted) support of items in db.
func Support(db txdb.Source, items itemset.Set) int {
	n := 0
	for k, rows := 0, db.NumTx(); k < rows; k++ {
		if items.SubsetOf(db.Tx(k)) {
			n += db.Weight(k)
		}
	}
	return n
}

// Closure returns the closure of items in db: the intersection of all
// transactions containing items. If no transaction contains items, the
// second return value is false.
func Closure(db txdb.Source, items itemset.Set) (itemset.Set, bool) {
	var clo itemset.Set
	first := true
	for k, rows := 0, db.NumTx(); k < rows; k++ {
		t := db.Tx(k)
		if !items.SubsetOf(t) {
			continue
		}
		if first {
			clo = t.Clone()
			first = false
		} else {
			clo = clo.Intersect(t)
		}
		if len(clo) == len(items) {
			// cannot shrink below items, early out
			break
		}
	}
	return clo, !first
}

// IsClosed reports whether items is closed in db (equal to the
// intersection of all transactions containing it), per §2.4 of the paper.
// The empty set and sets with empty cover are not considered closed.
func IsClosed(db txdb.Source, items itemset.Set) bool {
	if len(items) == 0 {
		return false
	}
	clo, ok := Closure(db, items)
	return ok && clo.Equal(items)
}

// Verify checks every pattern of s against db: support must match a direct
// count, be at least minSupport, and the item set must be closed. It
// returns a descriptive error for the first violation. Tests use it as a
// semantic check that is independent of any particular oracle.
func Verify(db txdb.Source, s *Set, minSupport int) error {
	for _, p := range s.Patterns {
		supp := Support(db, p.Items)
		if supp != p.Support {
			return fmt.Errorf("pattern %s: reported support %d, actual %d", p.Items, p.Support, supp)
		}
		if supp < minSupport {
			return fmt.Errorf("pattern %s: support %d below minimum %d", p.Items, supp, minSupport)
		}
		if !IsClosed(db, p.Items) {
			clo, _ := Closure(db, p.Items)
			return fmt.Errorf("pattern %s: not closed (closure %s)", p.Items, clo)
		}
	}
	// No duplicates.
	seen := make(map[string]bool, len(s.Patterns))
	for _, p := range s.Patterns {
		k := p.Items.Key()
		if seen[k] {
			return fmt.Errorf("pattern %s reported twice", p.Items)
		}
		seen[k] = true
	}
	return nil
}
