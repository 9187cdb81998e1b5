package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/gendata"
	"repro/internal/prep"
	"repro/internal/result"
	"repro/internal/txdb"
)

// Config tunes an experiment run. Zero values select the experiment
// defaults, which are sized so that a full experiment finishes within a
// couple of minutes on a laptop while still showing the paper's regime
// (raise Scale to approach the paper's data set sizes).
type Config struct {
	Scale   float64
	Seed    int64
	Timeout time.Duration
	// Parallelism, when >= 2, makes the par experiment measure exactly
	// that worker count instead of the default 2/4/8 ladder.
	Parallelism int
	// JSONDir, when non-empty, additionally writes each experiment's
	// measurements (including the per-phase prep/mine split and work
	// counters) as BENCH_<id>.json into this directory.
	JSONDir string
}

// writeJSON writes the experiment's measurements to Config.JSONDir (a
// no-op when unset) and notes the file in the report.
func (c Config) writeJSON(w io.Writer, id, workload string, algos []string, rows []Row) error {
	if c.JSONDir == "" {
		return nil
	}
	path, err := WriteBenchJSON(c.JSONDir, id, workload, algos, rows)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n\n", path)
	return nil
}

// parWorkers returns the worker counts the par experiment measures.
func (c Config) parWorkers() []int {
	if c.Parallelism >= 2 {
		return []int{c.Parallelism}
	}
	return []int{2, 4, 8}
}

func (c Config) scale(def float64) float64 {
	if c.Scale > 0 {
		return c.Scale
	}
	return def
}

func (c Config) seed(def int64) int64 {
	if c.Seed != 0 {
		return c.Seed
	}
	return def
}

func (c Config) timeout(def time.Duration) time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return def
}

// Experiment is one reproducible experiment from the paper's evaluation.
type Experiment struct {
	ID    string
	Title string
	// Notes states what shape the paper reports, for comparison.
	Notes string
	Run   func(cfg Config, w io.Writer) error
}

// Registry returns all experiments in presentation order.
func Registry() []Experiment {
	return []Experiment{
		{
			ID:    "table1",
			Title: "Table 1: matrix representation of the example transaction database",
			Notes: "exact reproduction of the paper's worked example",
			Run:   runTable1,
		},
		{
			ID:    "fig5",
			Title: "Figure 5: yeast-like expression data (few transactions, very many items)",
			Notes: "IsTa/Carpenter flat as minsup drops, FP-close and LCM explode below ~minsup 20; IsTa clearly beats Carpenter",
			Run:   runFig5,
		},
		{
			ID:    "fig6",
			Title: "Figure 6: NCBI60-like data (60 cell lines, support sweep near n)",
			Notes: "carp-table and IsTa on par (IsTa wins at the lowest support), carp-lists slower by a constant factor; FP-growth/LCM failed on this data",
			Run:   runFig6,
		},
		{
			ID:    "fig7",
			Title: "Figure 7: thrombin-like subset (64 transactions, very wide sparse features)",
			Notes: "like NCBI60 — carp-table ≈ IsTa, lists slower; FP-close/LCM competitive only down to minsup 32-34",
			Run:   runFig7,
		},
		{
			ID:    "fig8",
			Title: "Figure 8: transposed webview-like click streams",
			Notes: "like yeast — IsTa clearly beats both Carpenter variants; FP-close/LCM competitive only down to ~minsup 11",
			Run:   runFig8,
		},
		{
			ID:    "flat",
			Title: "§5: prefix-tree IsTa vs the flat cumulative scheme of Mielikäinen (FIMI'03)",
			Notes: "the flat scheme is often >100x slower — the prefix tree is the contribution",
			Run:   runFlat,
		},
		{
			ID:    "orders",
			Title: "§3.4 ablation: item coding and transaction processing order for IsTa",
			Notes: "ascending-frequency item codes + ascending-size transactions is fastest",
			Run:   runOrders,
		},
		{
			ID:    "prune",
			Title: "§3.1.1/§3.2 ablation: item elimination / pruning on and off",
			Notes: "item elimination gives a considerable speed-up",
			Run:   runPrune,
		},
		{
			ID:    "cobbler",
			Title: "Cobbler (combined column/row enumeration) vs IsTa and Carpenter",
			Notes: "§1 mentions Cobbler as Carpenter's closely related variant; the row-switch threshold trades the two search styles",
			Run:   runCobbler,
		},
		{
			ID:    "scaling",
			Title: "scaling study: time vs workload size at a fixed relative support",
			Notes: "§1: enumeration scales with the item count, intersection with the transaction count — the gap widens with the data",
			Run:   runScaling,
		},
		{
			ID:    "repo",
			Title: "§3.1.1 ablation: Carpenter repository as prefix tree vs hash table",
			Notes: "the prefix tree with a flat top level is the paper's repository design",
			Run:   runRepo,
		},
		{
			ID:    "isect",
			Title: "intersection kernels: sparse vs dense vs adaptive across densities, plus the dense mining workload",
			Notes: "not in the paper — the adaptive kernel stays near the faster pure representation across densities with zero steady-state allocations; writes the checked-in BENCH_10.json baseline",
			Run:   runIsect,
		},
		{
			ID:    "par",
			Title: "parallel engines: sequential vs 2/4/8 workers (identical output, measured speedup)",
			Notes: "not in the paper — shard-and-merge IsTa and branch-parallel Carpenter; speedups require as many free cores as workers",
			Run:   runParallel,
		},
	}
}

// Get finds an experiment by id.
func Get(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// sweep is the shared driver for figure-style experiments.
func sweep(w io.Writer, cfg Config, id, title string, db *txdb.DB, supports []int, algos []string, timeout time.Duration) error {
	rows, err := Sweep(db, supports, algos, timeout)
	if err != nil {
		return err
	}
	WriteTable(w, title, db.Stats(), algos, rows)
	WriteLogSeries(w, algos, rows)
	if err := cfg.writeJSON(w, id, db.Stats().String(), algos, rows); err != nil {
		return err
	}
	report := func(a, b string) {
		ms, f, ok := Speedup(rows, a, b)
		if !ok {
			return
		}
		if f < 1 {
			a, b, f = b, a, 1/f
		}
		fmt.Fprintf(w, "at minsup %d (lowest level both finished): %s is %.1fx faster than %s\n", ms, a, f, b)
	}
	report("ista", "fpclose")
	report("ista", "lcm")
	report("ista", "carp-table")
	report("carp-table", "carp-lists")
	fmt.Fprintln(w)
	return nil
}

var figureAlgos = []string{"ista", "carp-table", "carp-lists", "fpclose", "lcm"}

func runFig5(cfg Config, w io.Writer) error {
	db := gendata.Yeast(cfg.scale(0.15), cfg.seed(1))
	supports := []int{24, 22, 20, 18, 16, 14, 12, 10, 9, 8}
	return sweep(w, cfg, "fig5", "Figure 5 (yeast-like)", db, supports, figureAlgos, cfg.timeout(20*time.Second))
}

func runFig6(cfg Config, w io.Writer) error {
	db := gendata.NCBI60(cfg.scale(0.20), cfg.seed(2))
	supports := []int{54, 53, 52, 51, 50, 49, 48, 47, 46}
	return sweep(w, cfg, "fig6", "Figure 6 (NCBI60-like)", db, supports, figureAlgos, cfg.timeout(20*time.Second))
}

func runFig7(cfg Config, w io.Writer) error {
	db := gendata.Thrombin(cfg.scale(0.02), cfg.seed(3))
	supports := []int{40, 38, 36, 34, 32, 30, 28, 26}
	return sweep(w, cfg, "fig7", "Figure 7 (thrombin-like)", db, supports, figureAlgos, cfg.timeout(20*time.Second))
}

func runFig8(cfg Config, w io.Writer) error {
	db := gendata.WebView(cfg.scale(0.30), cfg.seed(4))
	supports := []int{20, 18, 16, 14, 12, 10, 8, 7, 6, 5}
	return sweep(w, cfg, "fig8", "Figure 8 (transposed webview-like)", db, supports, figureAlgos, cfg.timeout(20*time.Second))
}

func runFlat(cfg Config, w io.Writer) error {
	db := gendata.Yeast(cfg.scale(0.05), cfg.seed(5))
	supports := []int{12, 10, 8}
	algos := []string{"ista", "flat"}
	rows, err := Sweep(db, supports, algos, cfg.timeout(60*time.Second))
	if err != nil {
		return err
	}
	WriteTable(w, "Flat cumulative scheme vs IsTa", db.Stats(), algos, rows)
	if ms, f, ok := Speedup(rows, "ista", "flat"); ok {
		fmt.Fprintf(w, "at minsup %d: IsTa (prefix tree) is %.0fx faster than the flat repository\n\n", ms, f)
	}
	return cfg.writeJSON(w, "flat", db.Stats().String(), algos, rows)
}

func runOrders(cfg Config, w io.Writer) error {
	db := gendata.Yeast(cfg.scale(0.15), cfg.seed(1))
	minsup := 12
	fmt.Fprintf(w, "IsTa at minsup %d under all order combinations\n", minsup)
	fmt.Fprintf(w, "workload: %s\n\n", db.Stats())
	fmt.Fprintf(w, "%-16s  %-16s  %10s  %9s\n", "item order", "trans order", "time(s)", "#closed")
	type combo struct {
		io prep.ItemOrder
		to prep.TransOrder
	}
	for _, c := range []combo{
		{prep.OrderAscFreq, prep.OrderSizeAsc},
		{prep.OrderAscFreq, prep.OrderSizeDesc},
		{prep.OrderAscFreq, prep.OrderOriginal},
		{prep.OrderDescFreq, prep.OrderSizeAsc},
		{prep.OrderDescFreq, prep.OrderSizeDesc},
		{prep.OrderKeep, prep.OrderSizeAsc},
	} {
		v := variant("ista", "ista")
		v.Prep = prep.Config{Items: c.io, Trans: c.to}
		var counter result.Counter
		start := time.Now()
		if err := v.Run(db, engine.Spec{MinSupport: minsup}, &counter); err != nil {
			return err
		}
		fmt.Fprintf(w, "%-16s  %-16s  %10s  %9d\n", c.io, c.to, formatSeconds(time.Since(start)), counter.N)
	}
	fmt.Fprintln(w)
	return nil
}

func runPrune(cfg Config, w io.Writer) error {
	algos := []string{"ista", "ista-noprune", "carp-table", "carp-table-noelim", "carp-lists", "carp-lists-noelim"}
	db := gendata.Yeast(cfg.scale(0.15), cfg.seed(1))
	if err := sweepPlain(w, cfg, "prune-yeast", "Pruning/elimination ablation (yeast-like)", db, []int{16, 14, 12}, algos, cfg.timeout(15*time.Second)); err != nil {
		return err
	}
	db = gendata.Thrombin(cfg.scale(0.02), cfg.seed(3))
	if err := sweepPlain(w, cfg, "prune-thrombin", "Pruning/elimination ablation (thrombin-like)", db, []int{38, 36, 34}, algos, cfg.timeout(15*time.Second)); err != nil {
		return err
	}
	// IsTa without pruning times out at every support of the two sweeps
	// above; this smaller yeast-like workload gives the §3.2 ablation a
	// number.
	db = gendata.Yeast(cfg.scale(0.08), cfg.seed(1))
	return sweepPlain(w, cfg, "prune-yeast-small", "Pruning/elimination ablation (small yeast-like)", db, []int{16, 12, 10}, algos, cfg.timeout(15*time.Second))
}

func runCobbler(cfg Config, w io.Writer) error {
	db := gendata.Thrombin(cfg.scale(0.02), cfg.seed(3))
	return sweepPlain(w, cfg, "cobbler", "Cobbler vs intersection miners (thrombin-like)", db,
		[]int{40, 36, 34, 32}, []string{"ista", "carp-table", "cobbler", "eclat-closed"}, cfg.timeout(20*time.Second))
}

func runScaling(cfg Config, w io.Writer) error {
	algos := []string{"ista", "carp-table", "fpclose", "lcm"}
	fmt.Fprintln(w, "yeast-like workloads of growing size, minsup = 10% of the transactions")
	for _, scale := range []float64{0.05, 0.10, 0.15, 0.20} {
		db := gendata.Yeast(scale, cfg.seed(1))
		minsup := db.NumTx() / 10
		rows, err := Sweep(db, []int{minsup}, algos, cfg.timeout(30*time.Second))
		if err != nil {
			return err
		}
		r := rows[0]
		fmt.Fprintf(w, "scale %.2f  (%s)  minsup %d  #closed %d\n", scale, db.Stats(), minsup, r.Closed)
		for _, a := range algos {
			fmt.Fprintf(w, "    %-12s %s\n", a, formatCell(r.Cells[a]))
		}
	}
	fmt.Fprintln(w)
	return nil
}

func runRepo(cfg Config, w io.Writer) error {
	db := gendata.Yeast(cfg.scale(0.15), cfg.seed(1))
	return sweepPlain(w, cfg, "repo", "Repository layout ablation (Carpenter, yeast-like)", db,
		[]int{16, 14, 12}, []string{"carp-table", "carp-table-hash"}, cfg.timeout(30*time.Second))
}

// runParallel measures the parallel engines against their sequential
// counterparts on workloads suited to each: sharded IsTa on a
// many-transaction basket workload, branch-parallel Carpenter on a dense
// few-transaction one. Every run must report the same number of closed
// sets; the speedup column is wall-clock sequential/parallel (≈1x on a
// single-core machine — the engines trade per-worker duplicated merge
// work for concurrency, so gains need real cores).
func runParallel(cfg Config, w io.Writer) error {
	registry := Algorithms()
	fmt.Fprintf(w, "(%d cores available)\n\n", runtime.NumCPU())
	var jrows []Row
	var jalgos []string
	section := func(title string, db *txdb.DB, minsup int, seqName string, parAlgo func(p int) Algo) error {
		fmt.Fprintf(w, "%s\nworkload: %s, minsup %d\n", title, db.Stats(), minsup)
		fmt.Fprintf(w, "%-16s  %10s  %9s  %9s  %8s\n", "engine", "time(s)", "mine(s)", "#closed", "speedup")
		base := RunOne(registry[seqName], db, minsup, cfg.timeout(60*time.Second))
		if base.Err != nil {
			return base.Err
		}
		row := Row{MinSupport: minsup, Cells: map[string]Cell{seqName: base}, Closed: base.Closed}
		jalgos = append(jalgos, seqName)
		fmt.Fprintf(w, "%-16s  %10s  %10s  %9d  %8s\n", seqName, formatSeconds(base.Time), formatSeconds(base.MineTime), base.Closed, "1.0x")
		for _, p := range cfg.parWorkers() {
			a := parAlgo(p)
			cell := RunOne(a, db, minsup, cfg.timeout(60*time.Second))
			if cell.Err != nil {
				return cell.Err
			}
			row.Cells[a.Name] = cell
			jalgos = append(jalgos, a.Name)
			if cell.TimedOut {
				fmt.Fprintf(w, "%-16s  %10s\n", a.Name, "timeout")
				continue
			}
			if cell.Closed != base.Closed {
				return fmt.Errorf("bench: %s found %d closed sets, sequential %d", a.Name, cell.Closed, base.Closed)
			}
			fmt.Fprintf(w, "%-16s  %10s  %10s  %9d  %7.1fx\n", a.Name, formatSeconds(cell.Time), formatSeconds(cell.MineTime), cell.Closed,
				float64(base.Time)/float64(cell.Time))
		}
		jrows = append(jrows, row)
		fmt.Fprintln(w)
		return nil
	}
	quest := gendata.Quest(gendata.QuestConfig{
		Transactions: int(4000 * cfg.scale(1)), Items: 120, AvgLen: 10,
		Patterns: 30, AvgPatternLen: 4, Seed: cfg.seed(7),
	})
	if err := section("sharded IsTa (many transactions)", quest, quest.NumTx()/100,
		"ista", func(p int) Algo {
			return engineAlgo(fmt.Sprintf("ista-p%d", p), "ista", p)
		}); err != nil {
		return err
	}
	ncbi := gendata.NCBI60(cfg.scale(1)*0.25, cfg.seed(5))
	if err := section("branch-parallel Carpenter (few dense transactions)", ncbi, 50,
		"carp-table", func(p int) Algo {
			return engineAlgo(fmt.Sprintf("carp-table-p%d", p), "carpenter-table", p)
		}); err != nil {
		return err
	}
	return cfg.writeJSON(w, "par", "quest + ncbi60 (see sections above)", jalgos, jrows)
}

func sweepPlain(w io.Writer, cfg Config, id, title string, db *txdb.DB, supports []int, algos []string, timeout time.Duration) error {
	rows, err := Sweep(db, supports, algos, timeout)
	if err != nil {
		return err
	}
	WriteTable(w, title, db.Stats(), algos, rows)
	return cfg.writeJSON(w, id, db.Stats().String(), algos, rows)
}

func runTable1(_ Config, w io.Writer) error {
	// The example transaction database of Table 1 (a=0..e=4).
	m := txdb.FromInts(
		[]int{0, 1, 2},
		[]int{0, 3, 4},
		[]int{1, 2, 3},
		[]int{0, 1, 2, 3},
		[]int{1, 2},
		[]int{0, 1, 3},
		[]int{3, 4},
		[]int{2, 3, 4},
	).Matrix()
	names := []string{"a", "b", "c", "d", "e"}
	fmt.Fprintln(w, "Table 1: matrix representation for the improved Carpenter variant")
	fmt.Fprintf(w, "%4s", "")
	for _, n := range names {
		fmt.Fprintf(w, " %3s", n)
	}
	fmt.Fprintln(w)
	for k, row := range m.M {
		fmt.Fprintf(w, "t%-3d", k+1)
		for _, v := range row {
			fmt.Fprintf(w, " %3d", v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	return nil
}
