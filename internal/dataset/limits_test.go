package dataset

import (
	"errors"
	"os"
	"strings"
	"testing"
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
