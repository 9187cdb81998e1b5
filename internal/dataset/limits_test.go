package dataset

import (
	"bufio"
	"errors"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/itemset"
)

// TestReadLimitedTxLen rejects a line with more items than MaxTxLen,
// reporting the real input line number (comments counted), and accepts
// inputs exactly at the limit.
func TestReadLimitedTxLen(t *testing.T) {
	in := "# header comment\n1 2\n0 1 2 3 4\n3 4\n"
	_, err := ReadLimited(strings.NewReader(in), Limits{MaxTxLen: 4})
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("err = %v, want ErrLimit", err)
	}
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, not a *LimitError", err)
	}
	if le.Line != 3 || le.Value != 5 || le.Max != 4 {
		t.Errorf("limit error = %+v, want line 3 value 5 max 4", le)
	}

	db, err := ReadLimited(strings.NewReader(in), Limits{MaxTxLen: 5})
	if err != nil {
		t.Fatalf("at-limit input rejected: %v", err)
	}
	if db.NumTx() != 3 {
		t.Errorf("got %d transactions, want 3", db.NumTx())
	}
}

// TestReadLimitedMaxItemsNumeric rejects a numeric item code at or above
// MaxItems — the single-line attack that would otherwise size every
// universe-indexed allocation in the pipeline.
func TestReadLimitedMaxItemsNumeric(t *testing.T) {
	in := "0 1\n2 2000000000\n"
	_, err := ReadLimited(strings.NewReader(in), Limits{MaxItems: 1000})
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LimitError", err)
	}
	if le.Line != 2 || le.Value != 2000000000 || le.Max != 1000 {
		t.Errorf("limit error = %+v, want line 2", le)
	}

	if _, err := ReadLimited(strings.NewReader("0 999\n"), Limits{MaxItems: 1000}); err != nil {
		t.Errorf("code MaxItems-1 rejected: %v", err)
	}
	if _, err := ReadLimited(strings.NewReader("0 1000\n"), Limits{MaxItems: 1000}); !errors.Is(err, ErrLimit) {
		t.Errorf("code == MaxItems accepted (err=%v)", err)
	}
}

// TestReadLimitedMaxItemsNamed rejects a named input once it would
// introduce more distinct names than MaxItems.
func TestReadLimitedMaxItemsNamed(t *testing.T) {
	in := "apple bread\ncheese apple\ndates\n"
	db, err := ReadLimited(strings.NewReader(in), Limits{MaxItems: 4})
	if err != nil {
		t.Fatalf("4 distinct names rejected at MaxItems=4: %v", err)
	}
	if db.NumItems() != 4 {
		t.Errorf("universe = %d, want 4", db.NumItems())
	}

	_, err = ReadLimited(strings.NewReader(in), Limits{MaxItems: 2})
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LimitError", err)
	}
	if le.Line != 2 {
		t.Errorf("limit error on line %d, want 2 (third name appears there)", le.Line)
	}
}

// TestReadLimitedZeroIsUnlimited keeps the historic behavior for the
// zero value: Read == ReadLimited(Limits{}).
func TestReadLimitedZeroIsUnlimited(t *testing.T) {
	in := "0 1 2 3 4 5 6 7 8 9\n"
	db, err := ReadLimited(strings.NewReader(in), Limits{})
	if err != nil {
		t.Fatalf("unlimited read failed: %v", err)
	}
	if db.NumTx() != 1 || db.NumItems() != 10 {
		t.Errorf("db = %d trans, %d items", db.NumTx(), db.NumItems())
	}
	if Limits := (Limits{}); Limits.Enabled() {
		t.Error("zero Limits reports Enabled")
	}
}

// TestReadFileLimitedWrapsLimitError keeps errors.As working through the
// path-prefixed wrapper.
func TestReadFileLimitedWrapsLimitError(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/db.dat"
	if err := os.WriteFile(path, []byte("0 1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadFileLimited(path, Limits{MaxTxLen: 2})
	var le *LimitError
	if !errors.As(err, &le) || !errors.Is(err, ErrLimit) {
		t.Fatalf("err = %v, want wrapped *LimitError", err)
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("error %q does not name the file", err)
	}
}

// scriptReader yields its chunks one Read each and fails the test on any
// Read after the last.
type scriptReader struct {
	t      *testing.T
	chunks []string
}

func (r *scriptReader) Read(b []byte) (int, error) {
	if len(r.chunks) == 0 {
		r.t.Fatal("Read called after the line that breaches MaxTxLen")
	}
	n := copy(b, r.chunks[0])
	r.chunks[0] = r.chunks[0][n:]
	if r.chunks[0] == "" {
		r.chunks = r.chunks[1:]
	}
	return n, nil
}

// TestReadLimitStopsEarly: a MaxTxLen breach ends the read at its own
// line, with no further Read of the input. fimd relies on this to answer
// a breach with 400 before http.MaxBytesReader's 413.
func TestReadLimitStopsEarly(t *testing.T) {
	r := &scriptReader{t: t, chunks: []string{"1 2\n0 1 ", "2 3 4\n"}}
	_, err := ReadLimited(r, Limits{MaxTxLen: 4})
	var le *LimitError
	if !errors.As(err, &le) || le.Line != 2 || le.Value != 5 {
		t.Fatalf("err = %v, want a *LimitError for line 2 with 5 items", err)
	}
}

// endlessLine is an input of one line that never ends.
type endlessLine struct{}

func (endlessLine) Read(b []byte) (int, error) {
	for i := range b {
		b[i] = 'a'
	}
	return len(b), nil
}

// TestReadLineCap: a line of 64 MiB or more fails with bufio.ErrTooLong,
// the cap bufio.Scanner put on the reader before.
func TestReadLineCap(t *testing.T) {
	if testing.Short() {
		t.Skip("reads 64 MiB")
	}
	_, err := Read(io.MultiReader(strings.NewReader("1 2\nx\n"), endlessLine{}))
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("err = %v, want bufio.ErrTooLong", err)
	}
}

// TestNamesModeDropsParsedInput: after a switch to names in a buffer
// sized to the whole input, the parsed lines are not kept; the unparsed
// tail moves to a buffer of the minimum size.
func TestNamesModeDropsParsedInput(t *testing.T) {
	buf := make([]byte, 1<<20, 1<<20+1)
	copy(buf[len(buf)-3:], "a b")
	p := &parser{buf: buf, done: len(buf) - 3, codes: map[string]itemset.Item{}}
	p.makeRoom()
	if cap(p.buf) != minBuf || string(p.buf) != "a b" || p.done != 0 {
		t.Fatalf("buffer of cap %d holds %q from %d, want cap %d holding %q from 0",
			cap(p.buf), p.buf, p.done, minBuf, "a b")
	}
	// Numeric mode keeps every byte, for a later switch to names.
	p = &parser{buf: buf, done: len(buf) - 3}
	if p.makeRoom(); cap(p.buf) != cap(buf) || p.done != len(buf)-3 {
		t.Fatalf("numeric mode moved its buffer: cap %d, done %d", cap(p.buf), p.done)
	}
}
