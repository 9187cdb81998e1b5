package result

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/itemset"
)

// Parse reads a result set in the format produced by Set.Write (Borgelt's
// output format): one pattern per line, whitespace-separated items
// followed by the support in parentheses, e.g. "3 17 42 (8)". If names is
// non-nil, item tokens are resolved against it; otherwise tokens must be
// numeric codes. Blank lines and '#' comments are skipped.
func Parse(r io.Reader, names []string) (*Set, error) {
	index := map[string]itemset.Item{}
	for i, n := range names {
		index[n] = itemset.Item(i)
	}
	var out Set
	sc := bufio.NewScanner(r)
	// Start from the scanner's small default buffer; it grows on demand
	// up to 16 MiB for very long patterns.
	sc.Buffer(nil, 1<<24)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		open := strings.LastIndexByte(text, '(')
		close_ := strings.LastIndexByte(text, ')')
		if open < 0 || close_ < open {
			return nil, fmt.Errorf("result: line %d: missing support parentheses: %q", line, text)
		}
		supp, err := strconv.Atoi(strings.TrimSpace(text[open+1 : close_]))
		if err != nil {
			return nil, fmt.Errorf("result: line %d: bad support: %w", line, err)
		}
		var items []itemset.Item
		for _, tok := range strings.Fields(text[:open]) {
			if names != nil {
				code, ok := index[tok]
				if !ok {
					return nil, fmt.Errorf("result: line %d: unknown item name %q", line, tok)
				}
				items = append(items, code)
				continue
			}
			v, err := strconv.Atoi(tok)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("result: line %d: bad item %q", line, tok)
			}
			items = append(items, itemset.Item(v))
		}
		if len(items) == 0 {
			return nil, fmt.Errorf("result: line %d: empty item set", line)
		}
		out.Add(itemset.New(items...), supp)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("result: parse: %w", err)
	}
	return &out, nil
}
