// Package bench is the experiment harness that regenerates the paper's
// evaluation (Figures 5–8, Table 1, and the ablations discussed in §3 and
// §5). Every experiment pairs a deterministic synthetic workload (package
// gendata) with a minimum-support sweep over a fixed set of algorithms,
// measures wall-clock time per point with a per-run timeout (the paper's
// curves are likewise cut off where a program exceeds the time frame), and
// cross-checks that all algorithms that finished report the same number of
// closed sets.
package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/carpenter"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/result"
	"repro/internal/txdb"

	// Link the remaining algorithm packages (core and carpenter are
	// imported above for their ablation MineFuncs) and the parallel
	// engines; each registers itself with the engine from init.
	_ "repro/internal/cobbler"
	_ "repro/internal/eclat"
	_ "repro/internal/fpgrowth"
	_ "repro/internal/lcm"
	_ "repro/internal/naive"
	_ "repro/internal/parallel"
)

// Algo is one mining algorithm under test.
type Algo struct {
	// Name is the short column label ("ista", "carp-table", ...).
	Name string
	// Run mines db at minsup, reporting into rep; done cancels. st, when
	// non-nil, receives the run's counters and phase timings.
	Run func(db txdb.Source, minsup int, done <-chan struct{}, st *engine.Stats, rep result.Reporter) error
}

// engineAlgo adapts a registered miner to a bench Algo under the given
// column label. workers selects the engine: 1 forces the sequential
// miner, >= 2 the parallel engine where one is registered.
func engineAlgo(label, regName string, workers int) Algo {
	return Algo{label, func(db txdb.Source, ms int, done <-chan struct{}, st *engine.Stats, rep result.Reporter) error {
		return engine.Run(db, regName, engine.Spec{MinSupport: ms, Workers: workers, Done: done, Stats: st}, rep)
	}}
}

// variant returns a copy of the named registration, renamed to label, for
// an ablation to replace Mine or Prep in. The copy is not registered; it
// runs through Registration.Run with the same prep, guard, cancellation
// and Stats as its base.
func variant(label, base string) engine.Registration {
	reg, ok := engine.Lookup(base)
	if !ok {
		panic(fmt.Sprintf("bench: ablation base %q is not registered", base))
	}
	v := *reg
	v.Name = label
	return v
}

// ablation is a bench Algo running the base registration with Mine
// replaced, sequentially.
func ablation(label, base string, mine engine.MineFunc) Algo {
	v := variant(label, base)
	v.Mine = mine
	return Algo{label, func(db txdb.Source, ms int, done <-chan struct{}, st *engine.Stats, rep result.Reporter) error {
		return v.Run(db, engine.Spec{MinSupport: ms, Workers: 1, Done: done, Stats: st}, rep)
	}}
}

// Algorithms returns the algorithm registry keyed by name. Every entry
// runs through the engine: the base algorithms by registered name (the
// code path cmd/fim and fim.Mine use), the ablation variants as copies of
// their base registration with Mine replaced.
func Algorithms() map[string]Algo {
	algos := []Algo{
		engineAlgo("ista", "ista", 1),
		engineAlgo("carp-table", "carpenter-table", 1),
		engineAlgo("carp-lists", "carpenter-lists", 1),
		engineAlgo("fpclose", "fpclose", 1),
		engineAlgo("lcm", "lcm", 1),
		engineAlgo("eclat-closed", "eclat", 1),
		engineAlgo("cobbler", "cobbler", 1),
		engineAlgo("flat", "flat", 1),
		ablation("ista-noprune", "ista", core.MineNoPrune),
		ablation("carp-table-noelim", "carpenter-table", carpenter.MineTableNoElim),
		ablation("carp-lists-noelim", "carpenter-lists", carpenter.MineListsNoElim),
		ablation("carp-table-hash", "carpenter-table", carpenter.MineTableHash),
	}
	// Parallel engines at fixed worker counts, for the speedup experiment.
	for _, p := range []int{2, 4, 8} {
		algos = append(algos,
			engineAlgo(fmt.Sprintf("ista-p%d", p), "ista", p),
			engineAlgo(fmt.Sprintf("carp-table-p%d", p), "carpenter-table", p),
		)
	}
	m := make(map[string]Algo, len(algos))
	for _, a := range algos {
		m[a.Name] = a
	}
	return m
}

// Cell is one (algorithm, minsup) measurement.
type Cell struct {
	Time     time.Duration
	Closed   int
	TimedOut bool
	Skipped  bool // earlier timeout at a higher support level
	Err      error

	// Per-phase split and counters of the run (from engine.Stats). The
	// kernel counters (Isects, EarlyStops, RepSwitches) are zero for
	// miners that do not run on the tidset kernel.
	PrepTime time.Duration
	MineTime time.Duration
	obs.Counts

	// Allocation footprint of the run (heap allocation count and bytes,
	// from runtime.MemStats deltas around the single measured run). The
	// columnar store makes these nearly size-independent for prep; the
	// CI smoke run asserts the prep budget never regresses.
	Allocs int64
	Bytes  int64
}

// Row is one support level of a sweep.
type Row struct {
	MinSupport int
	Cells      map[string]Cell
	// Closed is the agreed number of closed sets (-1 if no algorithm
	// finished at this level).
	Closed int
}

// RunOne measures one algorithm on one workload at one support level.
func RunOne(a Algo, db txdb.Source, minsup int, timeout time.Duration) Cell {
	done := make(chan struct{})
	var timer *time.Timer
	if timeout > 0 {
		timer = time.AfterFunc(timeout, func() { close(done) })
	}
	var counter result.Counter
	var st engine.Stats
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := a.Run(db, minsup, done, &st, &counter)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if timer != nil {
		timer.Stop()
	}
	cell := Cell{
		Time: elapsed, Closed: counter.N,
		PrepTime: st.PrepTime, MineTime: st.MineTime,
		Counts: st.Counts,
		Allocs: int64(after.Mallocs - before.Mallocs),
		Bytes:  int64(after.TotalAlloc - before.TotalAlloc),
	}
	switch {
	case err == mining.ErrCanceled:
		cell.TimedOut = true
	case err != nil:
		cell.Err = err
	}
	return cell
}

// Sweep runs every named algorithm across the support levels (given from
// high to low, like the paper's plots read right to left). An algorithm
// that times out at some level is skipped for all lower levels, since the
// workload only grows as the support drops. Finished algorithms must agree
// on the number of closed sets; a mismatch is returned as an error because
// it would mean one of the miners is wrong.
func Sweep(db txdb.Source, supports []int, algoNames []string, timeout time.Duration) ([]Row, error) {
	registry := Algorithms()
	dead := map[string]bool{}
	rows := make([]Row, 0, len(supports))
	for _, ms := range supports {
		row := Row{MinSupport: ms, Cells: map[string]Cell{}, Closed: -1}
		for _, name := range algoNames {
			a, ok := registry[name]
			if !ok {
				return nil, fmt.Errorf("bench: unknown algorithm %q", name)
			}
			if dead[name] {
				row.Cells[name] = Cell{Skipped: true}
				continue
			}
			cell := RunOne(a, db, ms, timeout)
			if cell.Err != nil {
				return nil, fmt.Errorf("bench: %s at minsup %d: %w", name, ms, cell.Err)
			}
			if cell.TimedOut {
				dead[name] = true
			} else {
				if row.Closed == -1 {
					row.Closed = cell.Closed
				} else if row.Closed != cell.Closed {
					return nil, fmt.Errorf("bench: result mismatch at minsup %d: %s found %d closed sets, others %d",
						ms, name, cell.Closed, row.Closed)
				}
			}
			row.Cells[name] = cell
		}
		rows = append(rows, row)
	}
	return rows, nil
}
