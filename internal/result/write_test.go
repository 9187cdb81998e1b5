package result

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/itemset"
)

// fmtRender is the per-pattern renderer Set.Write replaced, kept as the
// byte-identity oracle: a reflection sort with the canonical less
// function, then a strings.Builder and fmt calls per pattern. It panics
// on a code outside names, as the renderer did.
func fmtRender(s *Set, names []string) string {
	ps := append([]Pattern(nil), s.Patterns...)
	sort.Slice(ps, func(i, j int) bool {
		c := itemset.Compare(ps[i].Items, ps[j].Items)
		if c != 0 {
			return c < 0
		}
		return ps[i].Support < ps[j].Support
	})
	var out strings.Builder
	for _, p := range ps {
		var b strings.Builder
		for i, it := range p.Items {
			if i > 0 {
				b.WriteByte(' ')
			}
			if names != nil {
				b.WriteString(names[it])
			} else {
				fmt.Fprintf(&b, "%d", it)
			}
		}
		fmt.Fprintf(&b, " (%d)\n", p.Support)
		out.WriteString(b.String())
	}
	return out.String()
}

// randPatterns fills a set with n random patterns over universe items:
// empty sets, repeated item sets with different supports, and supports
// up to maxSupp, in random order.
func randPatterns(rng *rand.Rand, n, universe, maxLen int, maxSupp int64) *Set {
	var s Set
	for len(s.Patterns) < n {
		items := randSet(rng, universe, maxLen)
		s.Add(items, int(rng.Int63n(maxSupp)))
		if rng.Intn(8) == 0 {
			s.Add(items, int(rng.Int63n(maxSupp)))
		}
	}
	return &s
}

// TestWriteByteIdentity compares Set.Write with the fmt renderer on
// random sets: numeric codes of one to seven digits, names, supports up
// to 2^40, and sets large enough to span several 64 KiB pieces.
func TestWriteByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	names := make([]string, 1000)
	for i := range names {
		names[i] = fmt.Sprintf("item-%d_%c", i, 'a'+i%26)
	}
	for _, c := range []struct {
		n, universe, maxLen int
		maxSupp             int64
		names               []string
	}{
		{0, 10, 4, 10, nil},
		{50, 10, 4, 10, nil},
		{500, 1000, 12, 1 << 40, nil},
		{20000, 5_000_000, 9, 1 << 20, nil},
		{300, 1000, 6, 1 << 40, names},
		{8000, 1000, 10, 100, names},
	} {
		s := randPatterns(rng, c.n, c.universe, c.maxLen, c.maxSupp)
		want := fmtRender(s, c.names)
		var got bytes.Buffer
		if err := s.Write(&got, c.names); err != nil {
			t.Fatal(err)
		}
		if got.String() != want {
			t.Fatalf("%d patterns over %d items (names %v): Write differs from the fmt renderer (%d vs %d bytes)",
				c.n, c.universe, c.names != nil, got.Len(), len(want))
		}
	}
}

// TestWriteBadNameCode: a code outside the name table is an error that
// names the pattern, the code and the table size, not an index panic.
func TestWriteBadNameCode(t *testing.T) {
	var s Set
	s.Add(itemset.FromInts(0, 1), 3)
	s.Add(itemset.FromInts(0, 2), 2)
	err := s.Write(io.Discard, []string{"a", "b"})
	if err == nil {
		t.Fatal("expected an error for item code 2 with 2 names")
	}
	for _, frag := range []string{"{0 2}", "item code 2", "2 names"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not mention %q", err, frag)
		}
	}
}

// countingWriter counts the Write calls and bytes it receives.
type countingWriter struct{ calls, bytes int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.calls++
	w.bytes += len(p)
	return len(p), nil
}

// TestWriteChunks: Write hands an unbuffered writer (cmd/fim's stdout)
// pieces of about 64 KiB, not one write per pattern. The set has the
// size of perfbench's dense result.
func TestWriteChunks(t *testing.T) {
	s := randPatterns(rand.New(rand.NewSource(5)), 7515, 48, 12, 2000)
	var w countingWriter
	if err := s.Write(&w, nil); err != nil {
		t.Fatal(err)
	}
	const chunk = 64 << 10
	if limit := (w.bytes+chunk-1)/chunk + 1; w.calls > limit {
		t.Fatalf("Write made %d calls for %d bytes, want at most %d", w.calls, w.bytes, limit)
	}
}

// TestWriteAllocs: Write allocates a constant number of times (its one
// buffer), whatever the pattern count. A per-pattern allocation, such as
// a strings.Builder or an fmt call, makes the counts grow with the set.
func TestWriteAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var counts []float64
	for _, n := range []int{5000, 20000} {
		s := randPatterns(rng, n, 2000, 10, 1<<20)
		s.Sort() // the sort itself is checked by TestWriteByteIdentity
		counts = append(counts, testing.AllocsPerRun(5, func() {
			if err := s.Write(io.Discard, nil); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if counts[0] != counts[1] || counts[0] > 1 {
		t.Fatalf("Write allocated %.0f times for 5000 patterns and %.0f for 20000, want the same, at most 1", counts[0], counts[1])
	}
}

// FuzzResultWriteParse: Parse reads back exactly what Write wrote, for
// numeric codes. Each pattern reads a length byte, that many two-byte
// item codes and a four-byte support.
func FuzzResultWriteParse(f *testing.F) {
	f.Add([]byte{2, 0, 1, 0, 9, 0, 0, 0, 7, 1, 255, 255, 1, 2, 3, 4})
	f.Add([]byte{3, 3, 0, 2, 0, 1, 0, 0, 0, 0, 1, 3, 0, 2, 0, 0, 0, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		var s Set
		for len(data) > 0 {
			n := 1 + next()%8
			items := make([]int, n)
			for i := range items {
				items[i] = next()<<8 | next()
			}
			supp := next()<<24 | next()<<16 | next()<<8 | next()
			s.Add(itemset.FromInts(items...), supp)
		}
		var buf bytes.Buffer
		if err := s.Write(&buf, nil); err != nil {
			t.Fatal(err)
		}
		back, err := Parse(&buf, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(&s) {
			t.Fatalf("round trip:\n%s", back.Diff(&s, 10))
		}
	})
}
