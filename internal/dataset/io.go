// Package dataset is the FIMI codec: it reads the FIMI workshop format
// straight into the one transaction store, internal/txdb, and writes any
// txdb.Source back out. It keeps no store of its own.
package dataset

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"unicode"
	"unicode/utf8"

	"repro/internal/itemset"
	"repro/internal/txdb"
)

// Limits bounds what ReadLimited accepts from untrusted input. The zero
// value imposes no bounds, preserving Read's historical behavior for
// trusted files.
type Limits struct {
	// MaxTxLen caps the number of item tokens on one input line. A hostile
	// (or merely broken) producer can put an arbitrarily long transaction
	// on a single line; without a cap the decoded transaction alone can
	// exhaust memory. Values <= 0 mean no cap.
	MaxTxLen int
	// MaxItems caps the item universe: numeric item codes must be below
	// it, and named inputs may introduce at most this many distinct names.
	// Item frequency tables, bitsets and the vertical view are all sized
	// by the universe, so one line saying "2000000000" would otherwise
	// make every consumer allocate gigabytes. Values <= 0 mean no cap.
	MaxItems int
}

// Enabled reports whether the limits bound anything.
func (l Limits) Enabled() bool { return l.MaxTxLen > 0 || l.MaxItems > 0 }

// ErrLimit is wrapped by every error ReadLimited reports for input that
// exceeds a configured admission limit. Match with errors.Is; the
// concrete *LimitError carries the offending line. Limit breaches are
// input errors (the bytes were read fine), distinct from I/O failures.
var ErrLimit = errors.New("dataset: input limit exceeded")

// LimitError reports one input line that exceeded a Limits bound. It
// wraps ErrLimit.
type LimitError struct {
	// Line is the 1-based input line (comment lines counted) the breach
	// was detected on.
	Line int
	// What names the limit ("transaction length" or "item universe").
	What string
	// Value is the offending size or item code; Max the configured bound.
	Value, Max int
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("dataset: line %d: %s %d exceeds limit %d", e.Line, e.What, e.Value, e.Max)
}

func (e *LimitError) Unwrap() error { return ErrLimit }

// Read parses a database in the FIMI workshop format used by the
// implementations the paper benchmarks against: one transaction per line,
// whitespace-separated item tokens. Numeric tokens become item codes
// directly; if any token is non-numeric, all tokens are treated as names
// and mapped to dense codes in first-appearance order (the mapping is the
// store's names column). Rows are sorted and deduplicated. Empty lines are
// kept as empty transactions, matching the paper's support semantics;
// lines starting with '#' are comments (still counted in line numbers).
func Read(r io.Reader) (*txdb.DB, error) { return ReadLimited(r, Limits{}) }

// ReadLimited is Read with admission limits for untrusted input: a line
// holding more than lim.MaxTxLen items, a numeric item code >=
// lim.MaxItems, or a named input introducing more than lim.MaxItems
// distinct names fails with a *LimitError (wrapping ErrLimit) carrying
// the offending line number. Transaction lengths are checked while
// scanning, before the line is decoded, so an over-long line never
// expands into decoded state.
//
// Numeric input is parsed in one streaming pass into a txdb.Builder with
// no allocation per line or per token. The lines are also kept as raw
// bytes, so that the first non-numeric token can switch the whole input
// to names by re-reading them.
func ReadLimited(r io.Reader, lim Limits) (*txdb.DB, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<26)
	p := &parser{lim: lim, b: txdb.NewBuilder(0, 0)}
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

// parser is the state of one ReadLimited call. It starts in numeric mode;
// codes is nil until a non-numeric token switches it to names.
type parser struct {
	lim   Limits
	b     *txdb.Builder
	no    int            // 1-based number of the current line
	row   []itemset.Item // scratch for the current line's codes
	raw   []byte         // every line read in numeric mode, '\n'-terminated
	codes map[string]itemset.Item
	names []string
	// err is the first error in the decoded content, in line order. It
	// depends on the mode (numeric codes out of range, too many names),
	// which is only known at the end, so it is reported after the scan.
	err error
}

// line decodes one input line. It returns only the errors that end the
// scan at once (a transaction-length breach); content errors go to p.err.
func (p *parser) line(text []byte) error {
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
		// string(tok) does not allocate for tokens of up to 32 bytes; only
		// the first name pays for Atoi's error.
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

// namedLine codes every token of text as a name, in first-appearance
// order.
func (p *parser) namedLine(text []byte) {
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

// toNames switches p to names: every line read so far, including the
// current one, is decoded again from p.raw with all tokens as names.
func (p *parser) toNames() {
	raw := p.raw
	*p = parser{lim: p.lim, b: txdb.NewBuilder(0, 0), row: p.row, codes: map[string]itemset.Item{}}
	for len(raw) > 0 {
		i := bytes.IndexByte(raw, '\n')
		_ = p.line(raw[:i]) // lengths were checked on the first read
		raw = raw[i+1:]
	}
}

// Byte classes for the tokenizer: ASCII bytes split by a table lookup,
// and the first byte of anything else hands the scan to the unicode path.
const (
	tokenByte = iota // ASCII, not white space
	spaceByte        // ASCII white space, as unicode.IsSpace says
	wideByte         // ≥ 0x80: part of a multi-byte rune, or invalid UTF-8
)

var byteClass = func() (c [256]uint8) {
	for _, b := range []byte("\t\n\v\f\r ") {
		c[b] = spaceByte
	}
	for b := utf8.RuneSelf; b < 256; b++ {
		c[b] = wideByte
	}
	return c
}()

// trimLeftSpace is bytes.TrimLeftFunc(s, unicode.IsSpace).
func trimLeftSpace(s []byte) []byte {
	for i, c := range s {
		switch byteClass[c] {
		case tokenByte:
			return s[i:]
		case wideByte:
			return bytes.TrimLeftFunc(s[i:], unicode.IsSpace)
		}
	}
	return nil
}

// nextField returns the first whitespace-separated token of s (nil if
// there is none) and the rest of s after it. It splits exactly where
// bytes.Fields does.
func nextField(s []byte) (tok, rest []byte) {
	s = trimLeftSpace(s)
	for i, c := range s {
		switch byteClass[c] {
		case spaceByte:
			return s[:i], s[i:]
		case wideByte:
			j := bytes.IndexFunc(s[i:], unicode.IsSpace)
			if j < 0 {
				return s, nil
			}
			return s[:i+j], s[i+j:]
		}
	}
	if len(s) == 0 {
		return nil, nil
	}
	return s, nil
}

func countFields(s []byte) int {
	n := 0
	for tok, rest := nextField(s); tok != nil; tok, rest = nextField(rest) {
		n++
	}
	return n
}

// Write renders src in the FIMI format accepted by Read, streaming row by
// row. A row of weight w is written w times, so Read(Write(src))
// reproduces the multiset exactly. Items are written as names when src is
// a store with a names column, and as codes otherwise. An item code
// outside the name table, or a row whose first name begins with '#'
// (which would read back as a comment), is an error.
func Write(w io.Writer, src txdb.Source) error {
	var names []string
	if db, ok := src.(*txdb.DB); ok {
		names = db.Names()
	}
	bw := bufio.NewWriter(w)
	var buf []byte
	for k, n := 0, src.NumTx(); k < n; k++ {
		var err error
		if buf, err = itemset.AppendText(buf[:0], src.Tx(k), names); err != nil {
			return fmt.Errorf("dataset: transaction %d holds %w", k, err)
		}
		if names != nil && len(buf) > 0 && buf[0] == '#' {
			return fmt.Errorf("dataset: transaction %d starts with name %q, which would read back as a comment", k, names[src.Tx(k)[0]])
		}
		buf = append(buf, '\n')
		for rep := src.Weight(k); rep > 0; rep-- {
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadFile loads a FIMI-format database from a file.
func ReadFile(path string) (*txdb.DB, error) {
	return ReadFileLimited(path, Limits{})
}

// ReadFileLimited loads a FIMI-format database from a file under the
// given admission limits (see ReadLimited).
func ReadFileLimited(path string, lim Limits) (*txdb.DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	db, err := ReadLimited(f, lim)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return db, nil
}
