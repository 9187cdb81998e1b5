// Package engine is the dispatch layer between the public API and the
// individual mining algorithms. Each algorithm package self-registers a
// capability declaration (Registration) in its init function; the engine
// looks miners up by name, runs the shared preprocessing pipeline
// (internal/prep) they declare, attaches cancellation/guard machinery and
// per-run Stats, and invokes the miner on the prepared database.
//
// Adding an algorithm therefore requires only a new package with an init
// that calls Register, plus a blank import where miners are linked in
// (the root fim package). Nothing in the engine, the public API, or the
// command line tool names individual algorithms.
package engine

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/guard"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/prep"
	"repro/internal/result"
	"repro/internal/txdb"
)

// Target selects which family of frequent item sets a run mines. The zero
// value is Closed, the repository's primary target (§2.4 of the paper).
type Target int

const (
	// Closed mines the closed frequent item sets.
	Closed Target = iota
	// All mines every frequent item set.
	All
	// Maximal mines the maximal frequent item sets.
	Maximal
)

func (t Target) String() string {
	switch t {
	case Closed:
		return "closed"
	case All:
		return "all"
	case Maximal:
		return "maximal"
	}
	return fmt.Sprintf("target(%d)", int(t))
}

// Spec is the one run specification every miner receives. It carries no
// algorithm-specific ablation switches (pruning, item elimination, …): an
// ablation is a copy of its base Registration with Mine (or Prep)
// replaced, run through Registration.Run like every other miner, so it
// gets the same prep, guard, cancellation and Stats.
type Spec struct {
	// MinSupport is the absolute minimum support; Run clamps values
	// below 1 to 1 before any miner sees them.
	MinSupport int
	// Target selects the mined family; the registration must declare it.
	Target Target
	// Workers selects parallel mining for algorithms that registered a
	// parallel engine: 0 or 1 mean sequential, >= 2 that many workers,
	// negative all cores. Algorithms without a parallel engine run
	// sequentially regardless.
	Workers int
	// Done, when closed, cancels the run (mining.ErrCanceled).
	Done <-chan struct{}
	// Guard, when non-nil, bounds the run (deadline, pattern and node
	// budgets) with typed errors.
	Guard *guard.Guard
	// Stats, when non-nil, is filled with per-run counters and timings.
	Stats *Stats
	// Sink, when non-nil, receives the run's observability events: phase
	// spans (prep, mine, merge) and rate-limited progress snapshots fed
	// from the Controls' amortized slow path. With a nil Sink and nil
	// Stats the run builds no counters at all and stays on the
	// atomic-free fast path.
	Sink obs.Sink
	// ProgressEvery is the minimum interval between progress snapshots;
	// 0 selects obs.DefaultInterval.
	ProgressEvery time.Duration
	// Retries enables self-healing in the parallel engines: a shard or
	// branch worker that panicked is re-mined sequentially up to Retries
	// times before the run degrades to a typed partial result
	// (PartialError). Zero keeps the fail-stop behavior.
	Retries int

	ctl *mining.Control
	run *obs.Run
}

// Control returns the cancellation/budget/stats control Run built for
// this run. Miners must thread it through their loops instead of creating
// their own so that budgets and counters are shared.
func (s *Spec) Control() *mining.Control { return s.ctl }

// Observer returns the run-scoped observation handle Run built for this
// run (nil — and safe to use — when no Sink is configured). Parallel
// engines use it to emit their merge-phase spans.
func (s *Spec) Observer() *obs.Run { return s.run }

// ErrUnknownAlgorithm is wrapped by Run's error for an unregistered name.
var ErrUnknownAlgorithm = errors.New("engine: unknown algorithm")

// ErrUnsupportedTarget is wrapped by Run's error when the registration
// does not declare the requested Target.
var ErrUnsupportedTarget = errors.New("engine: unsupported target")

// Run looks up the named miner and runs it (Registration.Run).
func Run(db txdb.Source, name string, spec Spec, rep result.Reporter) error {
	reg, ok := Lookup(name)
	if !ok {
		return fmt.Errorf("%w %q (available: %s)", ErrUnknownAlgorithm, name, strings.Join(Names(), ", "))
	}
	return reg.Run(db, spec, rep)
}

// Run validates db, applies the registration's declared preprocessing,
// and streams the mined patterns (in original item codes) into rep. It is
// the one way any miner runs: registered miners, the bench ablations
// (registration copies with Mine or Prep replaced) and the parallel
// engines' one-worker fallbacks all go through it or through a
// registration's Mine under the Spec it built. Cancellation, guard
// budgets, and panic semantics are those of the miner itself; Run adds
// nothing and swallows nothing, so the typed guard errors and the
// valid-prefix contract (DESIGN.md §5b) pass through unchanged.
func (reg *Registration) Run(db txdb.Source, spec Spec, rep result.Reporter) error {
	if !reg.SupportsTarget(spec.Target) {
		return fmt.Errorf("%w: %s does not mine %s sets", ErrUnsupportedTarget, reg.Name, spec.Target)
	}
	if err := txdb.Validate(db); err != nil {
		return err
	}
	if spec.MinSupport < 1 {
		spec.MinSupport = 1
	}

	parallel := reg.parallel != nil && (spec.Workers < 0 || spec.Workers >= 2)
	var counters *obs.Counters
	if spec.Stats != nil || spec.Sink != nil {
		counters = &obs.Counters{}
		rep = countingReporter{rep, counters}
	}
	if spec.Stats != nil {
		*spec.Stats = Stats{
			Algorithm:    reg.Name,
			Target:       spec.Target,
			MinSupport:   spec.MinSupport,
			Parallel:     parallel,
			Transactions: txdb.TotalWeightOf(db),
			Items:        db.NumItems(),
		}
	}
	if spec.Sink != nil {
		spec.run = obs.NewRun(spec.Sink, spec.ProgressEvery, counters.Load)
		counters.OnCheck = spec.run.Observe
	}
	spec.ctl = mining.GuardedCounted(spec.Done, spec.Guard, counters)

	start := time.Now()
	pre := prep.Prepare(db, spec.MinSupport, reg.Prep)
	prepDone := time.Now()
	spec.run.Span(obs.PhasePrep, start)
	if spec.Stats != nil {
		spec.Stats.PrepTime = prepDone.Sub(start)
		spec.Stats.PreppedTransactions = pre.DB.NumTx()
		spec.Stats.PreppedItems = pre.DB.NumItems()
	}

	var err error
	if pre.DB.NumItems() > 0 {
		fn := reg.Mine
		if parallel {
			fn = reg.parallel
		}
		err = fn(pre, &spec, rep)
	}
	spec.ctl.Flush()
	spec.run.Span(obs.PhaseMine, prepDone)
	if spec.Stats != nil {
		spec.Stats.MineTime = time.Since(prepDone)
		spec.Stats.Counts = counters.Load()
	}
	// The final progress snapshot is emitted before Run returns — with
	// every worker joined and the control flushed — so it agrees exactly
	// with Stats, and no event can trail a finished (or canceled) run.
	spec.run.Finish()
	return err
}

// countingReporter counts the patterns the miner reports into the shared
// run counters. Both the sequential miners and the parallel engines emit
// patterns from a single goroutine (the parallel engines merge before
// reporting), but progress snapshots read the count from worker
// goroutines, so it is kept atomically.
type countingReporter struct {
	rep      result.Reporter
	counters *obs.Counters
}

func (c countingReporter) Report(items itemset.Set, support int) {
	c.counters.Add(obs.Counts{Patterns: 1})
	c.rep.Report(items, support)
}
