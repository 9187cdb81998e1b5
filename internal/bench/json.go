package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs"
)

// BenchJSON is the machine-readable form of one experiment's
// measurements, written as BENCH_<id>.json when Config.JSONDir is set.
// Durations are milliseconds; the prep/mine split and the work counters
// come from engine.Stats, for the ablation variants too.
type BenchJSON struct {
	Experiment string    `json:"experiment"`
	Workload   string    `json:"workload"`
	Algorithms []string  `json:"algorithms"`
	Rows       []JSONRow `json:"rows"`
}

// JSONRow is one support level of an experiment.
type JSONRow struct {
	MinSupport int `json:"min_support"`
	// Closed is the agreed closed-set count (-1 if nothing finished).
	Closed int                 `json:"closed"`
	Cells  map[string]JSONCell `json:"cells"`
}

// JSONCell is one (algorithm, support level) measurement. The run
// counters appear under their obs.Counts keys; in a timed-out cell they
// (and the times) describe the partial run up to the timeout.
type JSONCell struct {
	Millis     float64 `json:"millis"`
	PrepMillis float64 `json:"prep_millis"`
	MineMillis float64 `json:"mine_millis"`
	// Closed is the number of closed sets the run reported, or -1 if it
	// timed out (a partial count varies from run to run), as in JSONRow.
	Closed int `json:"closed"`
	obs.Counts
	Allocs   int64 `json:"allocs_per_op"`
	Bytes    int64 `json:"bytes_per_op"`
	TimedOut bool  `json:"timed_out,omitempty"`
	Skipped  bool  `json:"skipped,omitempty"`
}

// WriteBenchJSON writes the rows of one experiment as BENCH_<id>.json
// into dir (created if missing) and returns the file's path.
func WriteBenchJSON(dir, id, workload string, algos []string, rows []Row) (string, error) {
	doc := BenchJSON{Experiment: id, Workload: workload, Algorithms: algos, Rows: make([]JSONRow, 0, len(rows))}
	for _, r := range rows {
		jr := JSONRow{MinSupport: r.MinSupport, Closed: r.Closed, Cells: make(map[string]JSONCell, len(r.Cells))}
		for name, c := range r.Cells {
			closed := c.Closed
			if c.TimedOut {
				closed = -1
			}
			jr.Cells[name] = JSONCell{
				Millis:     millis(c.Time),
				PrepMillis: millis(c.PrepTime),
				MineMillis: millis(c.MineTime),
				Closed:     closed,
				Counts:     c.Counts,
				Allocs:     c.Allocs,
				Bytes:      c.Bytes,
				TimedOut:   c.TimedOut,
				Skipped:    c.Skipped,
			}
		}
		doc.Rows = append(doc.Rows, jr)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+id+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
