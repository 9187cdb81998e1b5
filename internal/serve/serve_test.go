package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/prep"
	"repro/internal/result"
)

// Test-only algorithms. "test-block" reports one pattern and then parks
// until the current block channel is closed (or the run is canceled /
// tripped by the guard), giving tests a deterministic way to hold an
// admission slot. "test-panic" panics mid-mine, exercising the panic
// containment path end to end.
var blockState struct {
	mu sync.Mutex
	ch chan struct{}
}

// armBlock installs a fresh block channel and returns the function that
// releases every miner currently (or subsequently) parked on it.
func armBlock() (release func()) {
	ch := make(chan struct{})
	blockState.mu.Lock()
	blockState.ch = ch
	blockState.mu.Unlock()
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

func currentBlock() chan struct{} {
	blockState.mu.Lock()
	defer blockState.mu.Unlock()
	return blockState.ch
}

func init() {
	engine.Register(engine.Registration{
		Name:    "test-block",
		Doc:     "test only: report one pattern, then park until released",
		Targets: []engine.Target{engine.Closed},
		Order:   1000,
		Mine: func(pre *prep.Prepared, spec *engine.Spec, rep result.Reporter) error {
			rep.Report(itemset.FromInts(0), pre.DB.NumTx())
			ch := currentBlock()
			ticker := time.NewTicker(200 * time.Microsecond)
			defer ticker.Stop()
			for {
				select {
				case <-ch:
					return nil
				case <-spec.Done:
					return mining.ErrCanceled
				case <-ticker.C:
					if spec.Guard != nil {
						if err := spec.Guard.Check(); err != nil {
							return err
						}
					}
				}
			}
		},
	})
	engine.Register(engine.Registration{
		Name:    "test-panic",
		Doc:     "test only: panic mid-mine",
		Targets: []engine.Target{engine.Closed},
		Order:   1001,
		Mine: func(*prep.Prepared, *engine.Spec, result.Reporter) error {
			panic("test-panic: injected failure")
		},
	})
}

// newTestServer builds a Server plus its httptest front end.
func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp, data
}

func decodeMineResponse(t *testing.T, data []byte) mineResponse {
	t.Helper()
	var mr mineResponse
	if err := json.Unmarshal(data, &mr); err != nil {
		t.Fatalf("decode response %q: %v", data, err)
	}
	return mr
}

// TestMineJSON mines a small database over the wire and checks the
// exact closed sets come back.
func TestMineJSON(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, data := postJSON(t, ts.URL+"/mine", mineRequest{
		Transactions: [][]int{{0, 1}, {0, 1}, {0, 2}},
		MinSupport:   2,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, data)
	}
	mr := decodeMineResponse(t, data)
	want := []patternJSON{{Items: []int{0}, Support: 3}, {Items: []int{0, 1}, Support: 2}}
	if fmt.Sprint(mr.Patterns) != fmt.Sprint(want) {
		t.Errorf("patterns = %v, want %v", mr.Patterns, want)
	}
	if mr.Truncated || mr.Reason != "" || mr.Count != 2 {
		t.Errorf("response = %+v, want complete count 2", mr)
	}
}

// TestMineTextBody sends the same database in FIMI text form with the
// knobs as query parameters.
func TestMineTextBody(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Post(ts.URL+"/mine?support=2", "text/plain",
		strings.NewReader("0 1\n0 1\n0 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, data)
	}
	if mr := decodeMineResponse(t, data); mr.Count != 2 {
		t.Errorf("count = %d, want 2", mr.Count)
	}
}

// TestMineTextLimitLine proves a text body violating the input limits
// answers 400 and names the offending line, like the CLI's exit 2.
func TestMineTextLimitLine(t *testing.T) {
	_, ts := newTestServer(t, Options{Limits: dataset.Limits{MaxTxLen: 3}})
	resp, err := http.Post(ts.URL+"/mine?support=1", "text/plain",
		strings.NewReader("0 1\n# comment\n0 1 2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (body %s)", resp.StatusCode, data)
	}
	var er errorResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if er.Line != 3 {
		t.Errorf("line = %d, want 3 (comments counted)", er.Line)
	}
}

// TestMineJSONLimits applies the same limits to the JSON decode path.
func TestMineJSONLimits(t *testing.T) {
	_, ts := newTestServer(t, Options{Limits: dataset.Limits{MaxTxLen: 2, MaxItems: 100}})
	resp, data := postJSON(t, ts.URL+"/mine", mineRequest{
		Transactions: [][]int{{0, 1}, {0, 1, 2}}, MinSupport: 1,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-long row: status = %d, body %s", resp.StatusCode, data)
	}
	resp, data = postJSON(t, ts.URL+"/mine", mineRequest{
		Transactions: [][]int{{0, 100}}, MinSupport: 1,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-universe code: status = %d, body %s", resp.StatusCode, data)
	}
}

// TestMineBadRequests covers the 400 family: bad JSON, no transactions,
// negative codes, unknown algorithm, unknown target, and the body cap.
func TestMineBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxBodyBytes: 256})
	cases := []struct {
		name string
		ct   string
		body string
		want int
	}{
		{"bad json", "application/json", "{", http.StatusBadRequest},
		{"no transactions", "application/json", `{"minSupport":1}`, http.StatusBadRequest},
		{"negative code", "application/json", `{"transactions":[[-1]],"minSupport":1}`, http.StatusBadRequest},
		{"unknown algorithm", "application/json", `{"transactions":[[0]],"minSupport":1,"algorithm":"nope"}`, http.StatusBadRequest},
		{"unknown target", "application/json", `{"transactions":[[0]],"minSupport":1,"target":"open"}`, http.StatusBadRequest},
		{"oversized body", "application/json", `{"transactions":[[` + strings.Repeat("0,", 400) + `0]]}`, http.StatusRequestEntityTooLarge},
		{"oversized text body", "text/plain", strings.Repeat("0 1 2\n", 100), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/mine", tc.ct, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
}

// TestMineBudget206 caps the pattern budget and expects a 206 partial
// answer whose patterns are a valid prefix.
func TestMineBudget206(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, data := postJSON(t, ts.URL+"/mine", mineRequest{
		Transactions: [][]int{{0, 1, 2}, {0, 1}, {0, 2}, {1, 2}},
		MinSupport:   1,
		MaxPatterns:  1,
	})
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("status = %d, want 206 (body %s)", resp.StatusCode, data)
	}
	mr := decodeMineResponse(t, data)
	if !mr.Truncated || mr.Reason != "budget" || mr.Count != 1 {
		t.Errorf("response = %+v, want truncated budget count 1", mr)
	}
}

// TestMineServerBudgetCap proves the server-side pattern cap binds even
// when the request asks for more.
func TestMineServerBudgetCap(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxPatterns: 2})
	resp, data := postJSON(t, ts.URL+"/mine", mineRequest{
		Transactions: [][]int{{0, 1, 2}, {0, 1}, {0, 2}, {1, 2}},
		MinSupport:   1,
		MaxPatterns:  100,
	})
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("status = %d, want 206 (body %s)", resp.StatusCode, data)
	}
	if mr := decodeMineResponse(t, data); mr.Count != 2 {
		t.Errorf("count = %d, want the server cap 2", mr.Count)
	}
}

// TestMineDeadline206 lets the per-request deadline fire inside a
// parked miner and expects 206 with the deadline reason and the prefix
// mined so far.
func TestMineDeadline206(t *testing.T) {
	release := armBlock()
	defer release()
	_, ts := newTestServer(t, Options{})
	resp, data := postJSON(t, ts.URL+"/mine", mineRequest{
		Transactions: [][]int{{0, 1}},
		MinSupport:   1,
		Algorithm:    "test-block",
		TimeoutMs:    40,
	})
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("status = %d, want 206 (body %s)", resp.StatusCode, data)
	}
	mr := decodeMineResponse(t, data)
	if mr.Reason != "deadline" || !mr.Truncated {
		t.Errorf("response = %+v, want deadline truncation", mr)
	}
	if mr.Count != 1 {
		t.Errorf("count = %d, want the 1-pattern prefix", mr.Count)
	}
}

// TestTxClosedRoundtrip drives the durable endpoints: append
// transactions, mine the closed sets back, reject out-of-universe items.
func TestTxClosedRoundtrip(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Options{
		StoreDir:     dir,
		StoreOptions: persist.Options{Items: 8},
	})
	for _, items := range [][]int{{0, 1}, {0, 1}, {0, 2}} {
		resp, data := postJSON(t, ts.URL+"/tx", txRequest{Items: items})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/tx %v: status %d, body %s", items, resp.StatusCode, data)
		}
	}
	resp, data := postJSON(t, ts.URL+"/tx", txRequest{Items: []int{99}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-universe /tx: status %d, body %s", resp.StatusCode, data)
	}

	r, err := http.Get(ts.URL + "/closed?support=2")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	body, _ := io.ReadAll(r.Body)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/closed: status %d, body %s", r.StatusCode, body)
	}
	mr := decodeMineResponse(t, body)
	want := []patternJSON{{Items: []int{0}, Support: 3}, {Items: []int{0, 1}, Support: 2}}
	if fmt.Sprint(mr.Patterns) != fmt.Sprint(want) {
		t.Errorf("patterns = %v, want %v", mr.Patterns, want)
	}
}

// TestStoreEndpointsWithoutStore answers 404 when no store is mounted.
func TestStoreEndpointsWithoutStore(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, _ := postJSON(t, ts.URL+"/tx", txRequest{Items: []int{0}})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/tx without store: status %d, want 404", resp.StatusCode)
	}
	r, err := http.Get(ts.URL + "/closed?support=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("/closed without store: status %d, want 404", r.StatusCode)
	}
}

// TestHealthReadyStatus checks the probe endpoints on a healthy server.
func TestHealthReadyStatus(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d, want 200", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap statusSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("statusz decode: %v", err)
	}
	if snap.Draining || snap.Admission.Capacity != DefaultMaxWeight {
		t.Errorf("statusz = %+v, want idle with default capacity", snap)
	}
}

// TestGaugesPublished proves the admission gauges reach a gauge-capable
// sink after a request, and carry the serve_ prefix the dashboards key
// on.
func TestGaugesPublished(t *testing.T) {
	rec := &obs.Recorder{}
	_, ts := newTestServer(t, Options{Obs: rec})
	resp, data := postJSON(t, ts.URL+"/mine", mineRequest{
		Transactions: [][]int{{0, 1}, {0, 1}, {0, 2}}, MinSupport: 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mine: status %d, body %s", resp.StatusCode, data)
	}
	var mr mineResponse
	if err := json.Unmarshal(data, &mr); err != nil || mr.Count != 3 {
		t.Fatalf("mine: count %d (err %v), want 3", mr.Count, err)
	}
	g := rec.Gauges()
	if g["serve_admitted_total"] != 1 {
		t.Errorf("serve_admitted_total = %d, want 1 (gauges: %v)", g["serve_admitted_total"], g)
	}
	for _, name := range []string{"serve_active_weight", "serve_queue_depth", "serve_shed_total"} {
		if _, ok := g[name]; !ok {
			t.Errorf("gauge %s not published (gauges: %v)", name, g)
		}
	}
	// Per-request span with the request phase prefix, carrying the
	// counters of the request's mining run.
	var found bool
	for _, sp := range rec.Spans() {
		if sp.Phase == obs.PhaseRequest+":mine" {
			found = true
			if sp.Patterns != int64(mr.Count) || sp.Checks == 0 {
				t.Errorf("request:mine span counts = %+v, want patterns=%d and the run's checks", sp.Counts, mr.Count)
			}
		}
	}
	if !found {
		t.Errorf("no request:mine span recorded (spans: %v)", rec.Spans())
	}
}
