package dataset

import (
	"bytes"
	"strings"
	"testing"
	"unicode"

	"repro/internal/txdb"
)

// FuzzReadWriteRoundTrip feeds arbitrary text to the FIMI reader; whatever
// parses must survive a write/read round trip unchanged.
func FuzzReadWriteRoundTrip(f *testing.F) {
	f.Add("1 2 3\n4 5\n")
	f.Add("")
	f.Add("bread milk\nbeer\n")
	f.Add("0\n0 0 0\n\n7")
	f.Add("# comment\n9 3 9\n")
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<16 {
			return
		}
		db, err := Read(strings.NewReader(input))
		if err != nil {
			return // rejecting malformed input is fine
		}
		if err := txdb.Validate(db); err != nil {
			t.Fatalf("Read produced an invalid database: %v", err)
		}
		var sb strings.Builder
		if err := Write(&sb, db); err != nil {
			if strings.Contains(err.Error(), "read back as a comment") {
				return // a row led by a '#' name has no FIMI form
			}
			t.Fatal(err)
		}
		back, err := Read(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("round trip failed to parse: %v", err)
		}
		if back.NumTx() != db.NumTx() {
			t.Fatalf("round trip changed row count: %d -> %d", db.NumTx(), back.NumTx())
		}
		for k := 0; k < db.NumTx(); k++ {
			if !back.Tx(k).Equal(db.Tx(k)) {
				// Named databases re-encode codes by first appearance,
				// which Write preserves, so sets must match exactly.
				t.Fatalf("row %d changed: %v -> %v", k, db.Tx(k), back.Tx(k))
			}
		}
	})
}

// The preprocessing fuzz test (FuzzPrepareInvariants) lives in
// internal/prep with the pipeline it checks.

// FuzzFields checks the tokenizer against the standard library on
// arbitrary bytes: the tokens nextField yields are bytes.Fields', and
// trimLeftSpace is bytes.TrimLeftFunc with unicode.IsSpace.
func FuzzFields(f *testing.F) {
	f.Add([]byte("1 2\t3\r\n"))
	f.Add([]byte(""))
	f.Add([]byte("  \v\f "))
	f.Add([]byte("a b c\u0085 d"))
	f.Add([]byte("x\xffy \xc2 \xa0z"))
	f.Fuzz(func(t *testing.T, in []byte) {
		want := bytes.Fields(in)
		var got [][]byte
		for tok, rest := nextField(in); tok != nil; tok, rest = nextField(rest) {
			got = append(got, tok)
		}
		if len(got) != len(want) {
			t.Fatalf("%q: %d tokens %q, bytes.Fields has %d: %q", in, len(got), got, len(want), want)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%q: token %d is %q, bytes.Fields has %q", in, i, got[i], want[i])
			}
		}
		if got, want := trimLeftSpace(in), bytes.TrimLeftFunc(in, unicode.IsSpace); !bytes.Equal(got, want) {
			t.Fatalf("%q: trimLeftSpace = %q, want %q", in, got, want)
		}
	})
}
