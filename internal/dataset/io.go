// Package dataset is the FIMI codec: it reads the FIMI workshop format
// straight into the one transaction store, internal/txdb, and writes any
// txdb.Source back out. It keeps no store of its own.
//
// The reader passes its input through one buffer, which is both the scan
// window and the copy a switch to names re-reads, and parses each line in
// place as soon as it is complete; see ReadLimited.
package dataset

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
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
// the offending line number. Transaction lengths are checked as soon as a
// line is complete in the buffer, before it is decoded and before any
// more input is read, so an over-long line never expands into decoded
// state and a breach stops the read at its own line.
//
// The input passes through one growing buffer, which is both the scan
// window and the copy a switch to names re-reads: r is read in chunks
// and every complete line is parsed in place as soon as it arrives.
// When r reports its remaining length (Len() int, as bytes.Reader,
// strings.Reader and bytes.Buffer do) the buffer is sized to it up
// front. Decimal tokens are parsed inline, straight into a txdb.Builder
// pre-sized from byte counts over the first chunk, with no allocation
// per line or per token. A line of 64 MiB or more fails with an error
// wrapping bufio.ErrTooLong.
func ReadLimited(r io.Reader, lim Limits) (*txdb.DB, error) {
	size := minBuf
	if l, ok := r.(interface{ Len() int }); ok {
		size = l.Len() + 1 // the spare byte takes the EOF without a grow
	}
	p := &parser{lim: lim, buf: make([]byte, 0, size), maxCode: math.MaxInt32}
	if lim.MaxItems > 0 {
		p.maxCode = min(p.maxCode, uint(lim.MaxItems-1))
	}
	var rerr error
	for empty := 0; rerr == nil; {
		n, err := r.Read(p.buf[len(p.buf):cap(p.buf)])
		p.buf = p.buf[:len(p.buf)+n]
		if n > 0 || err != nil {
			empty = 0
		} else if empty++; empty == 100 {
			err = io.ErrNoProgress // as bufio.Scanner gives up
		}
		if p.b == nil {
			p.b = p.newBuilder()
		}
		if err := p.parse(len(p.buf), err != nil); err != nil {
			return nil, err
		}
		rerr = err
		p.makeRoom()
	}
	if rerr != io.EOF {
		return nil, fmt.Errorf("dataset: read: %w", rerr)
	}
	p.buf = nil // Build need not keep the input alive
	if p.err != nil {
		return nil, p.err
	}
	if p.codes != nil {
		p.b.SetNames(p.names)
	}
	return p.b.Build(), nil
}

const (
	// maxLine is the longest line accepted, as bufio.Scanner's token cap
	// was: a line of maxLine bytes or more fails with bufio.ErrTooLong.
	maxLine = 1 << 26
	// minBuf is the first buffer size when the input length is unknown.
	minBuf = 32 << 10
)

// parser is the state of one ReadLimited call. It starts in numeric mode;
// codes is nil until a non-numeric token switches it to names.
type parser struct {
	lim     Limits
	maxCode uint // the largest numeric item code accepted
	b       *txdb.Builder
	// buf holds the input read so far; buf[:done] is parsed. In numeric
	// mode it keeps every byte from the start, for a switch to names.
	buf   []byte
	done  int
	no    int            // 1-based number of the current line
	row   []itemset.Item // scratch for the current line's codes
	codes map[string]itemset.Item
	names []string
	// err is the first error in the decoded content, in line order. It
	// depends on the mode (numeric codes out of range, too many names),
	// which is only known at the end, so it is reported after the scan.
	err error
}

// newBuilder returns a Builder sized from cheap counts over the buffer:
// one row per '\n' and at most one id per ' ' or '\n', plus the last line.
func (p *parser) newBuilder() *txdb.Builder {
	rows := bytes.Count(p.buf, []byte{'\n'}) + 1
	return txdb.NewBuilder(rows, rows+bytes.Count(p.buf, []byte{' '}))
}

// parse decodes the lines of buf[done:end]. A line without its '\n' is
// left for the next call unless final is set, when it is the last line.
// It returns only the errors that end the read at once: a line of maxLine
// bytes or more, and a transaction-length breach.
func (p *parser) parse(end int, final bool) error {
	for p.done < end {
		rest := p.buf[p.done:end]
		n := bytes.IndexByte(rest, '\n')
		if n < 0 {
			n = len(rest)
		}
		if n >= maxLine {
			return fmt.Errorf("dataset: read: %w", bufio.ErrTooLong)
		}
		if n == len(rest) && !final {
			return nil
		}
		next := min(p.done+n+1, end)
		if err := p.line(rest[:n], next); err != nil {
			return err
		}
		p.done = next
	}
	return nil
}

// makeRoom leaves room in the buffer for the next read. Names mode never
// re-reads parsed lines: it moves the unparsed tail into a smaller buffer
// once the parsed part leaves most of this one idle (as after a switch in
// a buffer sized to the whole input), and drops the parsed lines in place
// once the buffer is full. A full buffer then doubles (by minBuf at
// least) if it is still over half full.
func (p *parser) makeRoom() {
	if p.codes != nil && p.done > 0 {
		tail := p.buf[p.done:]
		if c := max(minBuf, 2*len(tail)); c <= cap(p.buf)/4 {
			p.buf = append(make([]byte, 0, c), tail...)
			p.done = 0
		}
	}
	if len(p.buf) < cap(p.buf) {
		return
	}
	if p.codes != nil {
		p.buf = append(p.buf[:0], p.buf[p.done:]...)
		p.done = 0
	}
	if len(p.buf) > cap(p.buf)/2 {
		p.buf = slices.Grow(p.buf, max(cap(p.buf), minBuf))
	}
}

// line decodes one input line; next is the offset in buf just past it.
// It returns only a transaction-length breach; content errors go to
// p.err.
func (p *parser) line(text []byte, next int) error {
	p.no++
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
	switch {
	case p.codes != nil:
		if p.err == nil {
			p.namedLine(text)
		}
	case !p.numericLine(text):
		p.toNames(next)
	case p.err == nil:
		p.b.AddRow(p.row)
	}
	return nil
}

// numericLine appends the item codes of text to p.row. It reports false
// at the first token that is not a decimal integer. A token of 1-18
// ASCII digits ending at an ASCII space or at the end of the line is
// parsed inline; any other goes through strconv.Atoi, which gives signs,
// longer codes and their overflow their usual meaning.
func (p *parser) numericLine(text []byte) bool {
	for i := 0; i < len(text); {
		if byteClass[text[i]] == spaceByte {
			i++
			continue
		}
		j, v := i, 0
		for j < len(text) && j-i < 18 && text[j]-'0' < 10 {
			v = v*10 + int(text[j]-'0')
			j++
		}
		if j == i || j < len(text) && byteClass[text[j]] != spaceByte {
			tok, rest := nextField(text[i:])
			if tok == nil {
				break // only unicode spaces were left
			}
			// string(tok) does not allocate for tokens of up to 32 bytes;
			// only the first name pays for Atoi's error.
			var err error
			if v, err = strconv.Atoi(string(tok)); err != nil {
				return false
			}
			j = len(text) - len(rest)
		}
		p.row = append(p.row, itemset.Item(v))
		if uint(v) > p.maxCode && p.err == nil {
			p.badCode(v)
		}
		i = j
	}
	return true
}

// badCode records the content error of numeric item code v.
func (p *parser) badCode(v int) {
	switch {
	case v < 0:
		p.err = fmt.Errorf("dataset: line %d: negative item %d", p.no, v)
	case v > math.MaxInt32:
		p.err = fmt.Errorf("dataset: line %d: item %d exceeds the item code range", p.no, v)
	default:
		p.err = &LimitError{Line: p.no, What: "item universe", Value: v, Max: p.lim.MaxItems}
	}
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

// toNames switches p to names: every line of buf[:next], which ends
// with the current one, is decoded again with all tokens as names.
func (p *parser) toNames(next int) {
	*p = parser{lim: p.lim, maxCode: p.maxCode, buf: p.buf, row: p.row, codes: map[string]itemset.Item{}}
	p.b = p.newBuilder()
	_ = p.parse(next, true) // lengths were checked on the first pass
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
