package dataset

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/itemset"
	"repro/internal/txdb"
)

// scanRead is the reader ReadLimited replaced, kept as the differential
// oracle: a bufio.Scanner over lines, a raw copy of every numeric line
// for the switch to names, and strconv.Atoi on every token.
func scanRead(r io.Reader, lim Limits) (*txdb.DB, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<26)
	p := &scanParser{lim: lim, b: txdb.NewBuilder(0, 0)}
	for sc.Scan() {
		if err := p.line(sc.Bytes()); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: read: %w", err)
	}
	if p.err != nil {
		return nil, p.err
	}
	if p.codes != nil {
		p.b.SetNames(p.names)
	}
	return p.b.Build(), nil
}

type scanParser struct {
	lim   Limits
	b     *txdb.Builder
	no    int
	row   []itemset.Item
	raw   []byte
	codes map[string]itemset.Item
	names []string
	err   error
}

func (p *scanParser) line(text []byte) error {
	p.no++
	if p.codes == nil {
		p.raw = append(append(p.raw, text...), '\n')
	}
	text = trimLeftSpace(text)
	if len(text) > 0 && text[0] == '#' {
		return nil
	}
	if p.lim.MaxTxLen > 0 {
		if n := countFields(text); n > p.lim.MaxTxLen {
			return &LimitError{Line: p.no, What: "transaction length", Value: n, Max: p.lim.MaxTxLen}
		}
	}
	p.row = p.row[:0]
	if p.codes != nil {
		if p.err == nil {
			p.namedLine(text)
		}
		return nil
	}
	for tok, rest := nextField(text); tok != nil; tok, rest = nextField(rest) {
		v, err := strconv.Atoi(string(tok))
		if err != nil {
			p.toNames()
			return nil
		}
		switch {
		case p.err != nil:
		case v < 0:
			p.err = fmt.Errorf("dataset: line %d: negative item %d", p.no, v)
		case v > math.MaxInt32:
			p.err = fmt.Errorf("dataset: line %d: item %d exceeds the item code range", p.no, v)
		case p.lim.MaxItems > 0 && v >= p.lim.MaxItems:
			p.err = &LimitError{Line: p.no, What: "item universe", Value: v, Max: p.lim.MaxItems}
		}
		p.row = append(p.row, itemset.Item(v))
	}
	if p.err == nil {
		p.b.AddRow(p.row)
	}
	return nil
}

func (p *scanParser) namedLine(text []byte) {
	for tok, rest := nextField(text); tok != nil; tok, rest = nextField(rest) {
		c, ok := p.codes[string(tok)]
		if !ok {
			if p.lim.MaxItems > 0 && len(p.names) >= p.lim.MaxItems {
				p.err = &LimitError{Line: p.no, What: "item universe", Value: len(p.names) + 1, Max: p.lim.MaxItems}
				return
			}
			c = itemset.Item(len(p.names))
			name := string(tok)
			p.codes[name] = c
			p.names = append(p.names, name)
		}
		p.row = append(p.row, c)
	}
	p.b.AddRow(p.row)
}

func (p *scanParser) toNames() {
	raw := p.raw
	*p = scanParser{lim: p.lim, b: txdb.NewBuilder(0, 0), row: p.row, codes: map[string]itemset.Item{}}
	for len(raw) > 0 {
		i := bytes.IndexByte(raw, '\n')
		_ = p.line(raw[:i])
		raw = raw[i+1:]
	}
}

var errBroken = errors.New("connection broken")

// chunkReader yields at most n bytes a Read and hides the input's
// length, as a network body does.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(b []byte) (int, error) { return c.r.Read(b[:min(len(b), c.n)]) }

// sameRead fails t unless the two results of reading in are equal: the
// same rows, universe and names, or errors of the same type with the
// same text (and line, limit and value for a *LimitError).
func sameRead(t *testing.T, in []byte, lim Limits, db *txdb.DB, err error, want *txdb.DB, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%q %+v: error %v, the scanner reader gives %v", in, lim, err, wantErr)
	}
	if err != nil {
		var le, wantLE *LimitError
		if errors.As(err, &le) != errors.As(wantErr, &wantLE) || le != nil && *le != *wantLE {
			t.Fatalf("%q %+v: error %#v, the scanner reader gives %#v", in, lim, err, wantErr)
		}
		if errors.Is(err, bufio.ErrTooLong) != errors.Is(wantErr, bufio.ErrTooLong) {
			t.Fatalf("%q %+v: error %v wraps ErrTooLong differently from %v", in, lim, err, wantErr)
		}
		return
	}
	if db.NumTx() != want.NumTx() || db.NumItems() != want.NumItems() || db.TotalWeight() != want.TotalWeight() {
		t.Fatalf("%q %+v: %d rows over %d items, the scanner reader gives %d over %d",
			in, lim, db.NumTx(), db.NumItems(), want.NumTx(), want.NumItems())
	}
	for k := 0; k < db.NumTx(); k++ {
		if !db.Tx(k).Equal(want.Tx(k)) || db.Weight(k) != want.Weight(k) {
			t.Fatalf("%q %+v: row %d is %v, the scanner reader gives %v", in, lim, k, db.Tx(k), want.Tx(k))
		}
	}
	if fmt.Sprint(db.Names()) != fmt.Sprint(want.Names()) || (db.Names() == nil) != (want.Names() == nil) {
		t.Fatalf("%q %+v: names %q, the scanner reader gives %q", in, lim, db.Names(), want.Names())
	}
}

// FuzzReadMatchesScanner checks ReadLimited against the scanner reader it
// replaced on arbitrary bytes, with and without limits, reading the input
// whole and in chunks of a fuzzed size.
func FuzzReadMatchesScanner(f *testing.F) {
	f.Add([]byte("1 2 3\r\n4 5\r\n"), uint8(0), uint8(0), uint8(0))
	f.Add([]byte("1\u00852 3\u00a04\u00a0\n5\u2003x"), uint8(3), uint8(0), uint8(2))
	f.Add([]byte("+7 -0 007\n"), uint8(0), uint8(8), uint8(1))
	f.Add([]byte("1234567890123456789 3\n9223372036854775808\n"), uint8(0), uint8(0), uint8(5))
	f.Add([]byte(strings.Repeat("3 1 2\n", 1000)+"milk 3\n1 2\n"), uint8(3), uint8(0), uint8(7))
	f.Add([]byte("# c 1 2 3 4\n\t# x\n1 2\n#\n"), uint8(2), uint8(3), uint8(3))
	f.Add([]byte("1 2\n\n3\n\n"), uint8(0), uint8(0), uint8(1))
	f.Add([]byte("2147483648\n2147483647 -1\n"), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, in []byte, maxTx, maxItems, chunk uint8) {
		if len(in) > 1<<16 {
			return
		}
		for _, lim := range []Limits{{}, {MaxTxLen: int(maxTx), MaxItems: int(maxItems)}} {
			want, wantErr := scanRead(bytes.NewReader(in), lim)
			db, err := ReadLimited(bytes.NewReader(in), lim)
			sameRead(t, in, lim, db, err, want, wantErr)
			db, err = ReadLimited(chunkReader{bytes.NewReader(in), int(chunk%16) + 1}, lim)
			sameRead(t, in, lim, db, err, want, wantErr)
			// A read error after the data: the last line still counts.
			want, wantErr = scanRead(io.MultiReader(bytes.NewReader(in), iotest.ErrReader(errBroken)), lim)
			db, err = ReadLimited(chunkReader{io.MultiReader(bytes.NewReader(in), iotest.ErrReader(errBroken)), int(chunk%16) + 1}, lim)
			sameRead(t, in, lim, db, err, want, wantErr)
		}
	})
}

// TestReadMatchesScannerLarge compares the readers on inputs of several
// buffers: the numeric buffer grows past its first size, a name deep in
// the input re-reads all of it, and names mode then reuses its buffer.
func TestReadMatchesScannerLarge(t *testing.T) {
	var numeric bytes.Buffer
	for k := 0; numeric.Len() < 5*minBuf; k++ {
		fmt.Fprintf(&numeric, "%d %d %d\n", k%97, k%13, k%1009)
	}
	named := append(bytes.Clone(numeric.Bytes()), "milk 3\n"...)
	for k := 0; k < 20000; k++ {
		named = fmt.Appendf(named, "a%d b%d\r\n", k%31, k%7)
	}
	for _, in := range [][]byte{numeric.Bytes(), named} {
		want, wantErr := scanRead(bytes.NewReader(in), Limits{})
		for _, chunk := range []int{1 << 30, 4096, 1000} {
			db, err := ReadLimited(chunkReader{bytes.NewReader(in), chunk}, Limits{})
			sameRead(t, in[:64], Limits{}, db, err, want, wantErr)
		}
		db, err := ReadLimited(bytes.NewReader(in), Limits{})
		sameRead(t, in[:64], Limits{}, db, err, want, wantErr)
	}
}
