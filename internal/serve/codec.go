package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	fim "repro"
	"repro/internal/dataset"
)

// mineRequest is the JSON body of POST /mine. The same endpoint also
// accepts a text/plain body in FIMI format (one transaction per line)
// with the knobs moved to query parameters.
type mineRequest struct {
	// Transactions are rows of non-negative item codes.
	Transactions [][]int `json:"transactions"`
	// MinSupport is the absolute minimum support; values below 1 act as 1.
	MinSupport int `json:"minSupport"`
	// Algorithm selects the miner; empty selects the default (IsTa).
	Algorithm string `json:"algorithm,omitempty"`
	// Target is "closed" (default), "all" or "maximal".
	Target string `json:"target,omitempty"`
	// TimeoutMs bounds the run's wall clock; 0 uses the server default,
	// values above the server maximum are clamped.
	TimeoutMs int `json:"timeoutMs,omitempty"`
	// MaxPatterns caps the number of reported patterns; exceeding it
	// yields a 206 partial result.
	MaxPatterns int `json:"maxPatterns,omitempty"`
	// MaxTreeNodes caps the miner repository size (memory bound).
	MaxTreeNodes int `json:"maxTreeNodes,omitempty"`
	// Workers selects parallel mining (0/1 sequential, -1 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
}

// patternJSON is one mined pattern on the wire.
type patternJSON struct {
	Items   []int `json:"items"`
	Support int   `json:"support"`
}

// mineResponse is the body of a 200 or 206 answer from /mine and
// GET /closed. On 206, Truncated is set and Reason names the bound that
// cut the enumeration (the reported patterns are a valid prefix — every
// pattern is genuinely frequent with its exact support).
type mineResponse struct {
	Patterns  []patternJSON `json:"patterns"`
	Count     int           `json:"count"`
	Truncated bool          `json:"truncated,omitempty"`
	Reason    string        `json:"reason,omitempty"`
	ElapsedMs float64       `json:"elapsedMs"`
}

// txRequest is the JSON body of POST /tx.
type txRequest struct {
	Items []int `json:"items"`
}

// errorResponse is the body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
	// Line is the offending input line for input-limit violations on
	// text bodies (mirrors the CLI's exit-2 diagnostics).
	Line int `json:"line,omitempty"`
}

// clientError marks a request defect (HTTP 400/413, the service-side
// twin of the CLI's exit code 2). Line is 0 unless a text input line can
// be named.
type clientError struct {
	msg  string
	line int
}

func (e *clientError) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return &clientError{msg: fmt.Sprintf(format, args...)}
}

func parseTarget(s string) (fim.Target, error) {
	switch s {
	case "", "closed":
		return fim.TargetClosed, nil
	case "all":
		return fim.TargetAll, nil
	case "maximal":
		return fim.TargetMaximal, nil
	}
	return fim.TargetClosed, badRequestf("unknown target %q (want closed, all or maximal)", s)
}

// decodeMineRequest parses a /mine request into the transaction database
// and the request knobs. JSON bodies carry everything inline; text/plain
// bodies are FIMI-format transactions (parsed through the hardened
// dataset reader, so the input limits and their line diagnostics apply)
// with the knobs in query parameters. The body is already wrapped in
// http.MaxBytesReader by the caller.
func decodeMineRequest(r *http.Request, lim dataset.Limits) (*fim.Database, mineRequest, error) {
	var req mineRequest
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = strings.TrimSpace(ct[:i])
	}
	switch ct {
	case "", "application/json":
		dec := json.NewDecoder(r.Body)
		if err := dec.Decode(&req); err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				return nil, req, err // writeRequestError answers 413
			}
			return nil, req, badRequestf("invalid JSON body: %v", err)
		}
		if len(req.Transactions) == 0 {
			return nil, req, badRequestf("empty request: transactions required")
		}
		if err := checkRows(req.Transactions, lim); err != nil {
			return nil, req, err
		}
		return fim.NewDatabase(req.Transactions), req, nil

	case "text/plain", "text/fimi", "application/octet-stream":
		db, err := fim.ReadLimited(r.Body, lim)
		if err != nil {
			return nil, req, asInputError(err)
		}
		if db.NumTx() == 0 {
			return nil, req, badRequestf("empty request: no transactions in body")
		}
		q := r.URL.Query()
		req.MinSupport, err = queryInt(q.Get("support"), 1)
		if err != nil {
			return nil, req, badRequestf("invalid support parameter: %v", err)
		}
		req.Algorithm = q.Get("algorithm")
		req.Target = q.Get("target")
		if req.TimeoutMs, err = queryInt(q.Get("timeoutMs"), 0); err != nil {
			return nil, req, badRequestf("invalid timeoutMs parameter: %v", err)
		}
		if req.MaxPatterns, err = queryInt(q.Get("maxPatterns"), 0); err != nil {
			return nil, req, badRequestf("invalid maxPatterns parameter: %v", err)
		}
		if req.Workers, err = queryInt(q.Get("workers"), 0); err != nil {
			return nil, req, badRequestf("invalid workers parameter: %v", err)
		}
		return db, req, nil
	}
	return nil, req, badRequestf("unsupported Content-Type %q (want application/json or text/plain)", ct)
}

func queryInt(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

// checkRows validates JSON transaction rows against the input limits —
// the same bounds the dataset reader enforces on text input, so neither
// decode path can size universe-indexed allocations from one hostile row.
func checkRows(rows [][]int, lim dataset.Limits) error {
	for i, row := range rows {
		if lim.MaxTxLen > 0 && len(row) > lim.MaxTxLen {
			return &clientError{
				msg:  fmt.Sprintf("transaction %d has %d items, limit is %d", i, len(row), lim.MaxTxLen),
				line: i + 1,
			}
		}
		for _, v := range row {
			if v < 0 {
				return badRequestf("transaction %d: negative item code %d", i, v)
			}
			if lim.MaxItems > 0 && v >= lim.MaxItems {
				return &clientError{
					msg:  fmt.Sprintf("transaction %d: item code %d exceeds limit %d", i, v, lim.MaxItems-1),
					line: i + 1,
				}
			}
		}
	}
	return nil
}

// asInputError converts dataset reader errors (including the typed limit
// errors with their line numbers) into clientErrors. An oversized body
// passes through unchanged so writeRequestError answers 413.
func asInputError(err error) error {
	var le *dataset.LimitError
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &le):
		return &clientError{msg: le.Error(), line: le.Line}
	case errors.As(err, &mbe):
		return err
	}
	return &clientError{msg: fmt.Sprintf("invalid input: %v", err)}
}

func patternsJSON(set *fim.ResultSet) []patternJSON {
	set.Sort()
	out := make([]patternJSON, set.Len())
	for i, p := range set.Patterns {
		items := make([]int, len(p.Items))
		for j, it := range p.Items {
			items[j] = int(it)
		}
		out[i] = patternJSON{Items: items, Support: p.Support}
	}
	return out
}
