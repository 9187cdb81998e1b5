package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// rawCells decodes a BENCH file's cells as plain maps, so the test sees
// the key names on disk rather than the ones BenchJSON expects.
func rawCells(t *testing.T, data []byte) []map[string]map[string]any {
	t.Helper()
	var raw struct {
		Rows []struct {
			Cells map[string]map[string]any `json:"cells"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	out := make([]map[string]map[string]any, len(raw.Rows))
	for i, r := range raw.Rows {
		out[i] = r.Cells
	}
	return out
}

// counterKeys lists the counters a BENCH cell is read for, with their
// values in c.
func counterKeys(c JSONCell) map[string]int64 {
	return map[string]int64{
		"ops":          c.Ops,
		"nodes_peak":   c.NodesPeak,
		"isects":       c.Isects,
		"early_stops":  c.EarlyStops,
		"rep_switches": c.RepSwitches,
	}
}

// TestBenchJSONKeys guards the on-disk counter keys of BENCH files. The
// checked-in BENCH_10.json must decode into BenchJSON with every cell's
// counters equal to a raw map decode (an absent key reads as zero), and
// a written file must carry every counter under its key.
func TestBenchJSONKeys(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_10.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc BenchJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	raw := rawCells(t, data)
	if len(doc.Rows) == 0 || len(raw) != len(doc.Rows) {
		t.Fatalf("decoded %d rows, raw %d", len(doc.Rows), len(raw))
	}
	nonzero := map[string]bool{}
	for i, row := range doc.Rows {
		for name, cell := range row.Cells {
			for key, got := range counterKeys(cell) {
				want, _ := raw[i][name][key].(float64)
				if got != int64(want) {
					t.Errorf("row %d %s: %s = %d, raw file holds %v", i, name, key, got, raw[i][name][key])
				}
				nonzero[key] = nonzero[key] || got != 0
			}
		}
	}
	for _, key := range []string{"ops", "nodes_peak", "isects", "early_stops"} {
		if !nonzero[key] {
			t.Errorf("no cell of BENCH_10.json has a nonzero %s", key)
		}
	}

	cell := Cell{Closed: 1, Counts: obs.Counts{Ops: 2, NodesPeak: 3, Isects: 4, EarlyStops: 5, RepSwitches: 6}}
	path, err := WriteBenchJSON(t.TempDir(), "t", "w", []string{"a"}, []Row{{MinSupport: 1, Closed: 1, Cells: map[string]Cell{"a": cell}}})
	if err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	written := rawCells(t, data)[0]["a"]
	for key, want := range counterKeys(JSONCell{Counts: cell.Counts}) {
		if got, _ := written[key].(float64); int64(got) != want {
			t.Errorf("written cell: %s = %v, want %d", key, written[key], want)
		}
	}
}

// TestBenchJSONTimedOutClosed: a timed-out cell's closed count is the
// partial run's and varies between runs, so the file carries -1 for it,
// as it does for a row nothing finished. A finished cell keeps its count.
func TestBenchJSONTimedOutClosed(t *testing.T) {
	cells := map[string]Cell{
		"done": {Closed: 7},
		"cut":  {Closed: 5, TimedOut: true, Counts: obs.Counts{Ops: 9}},
	}
	path, err := WriteBenchJSON(t.TempDir(), "t", "w", []string{"done", "cut"}, []Row{{MinSupport: 1, Closed: 7, Cells: cells}})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	written := rawCells(t, data)[0]
	if got := written["done"]["closed"]; got != float64(7) {
		t.Errorf("finished cell: closed = %v, want 7", got)
	}
	if got := written["cut"]["closed"]; got != float64(-1) {
		t.Errorf("timed-out cell: closed = %v, want -1", got)
	}
	if got := written["cut"]["ops"]; got != float64(9) {
		t.Errorf("timed-out cell: ops = %v, want the partial run's 9", got)
	}
}
