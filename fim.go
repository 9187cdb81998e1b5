// Package fim is the public API of this repository: closed frequent item
// set mining by intersecting transactions, reproducing
//
//	C. Borgelt, X. Yang, R. Nogales-Cadenas, P. Carmona-Sáez,
//	A. Pascual-Montano: "Finding Closed Frequent Item Sets by
//	Intersecting Transactions", EDBT 2011.
//
// The package exposes the paper's two intersection algorithms — IsTa
// (cumulative intersection with a prefix tree repository) and Carpenter
// (transaction set enumeration, list- and table-based) — together with
// the enumeration baselines the paper compares against (FP-growth /
// FP-close, LCM, Eclat), Cobbler, the flat cumulative baseline, synthetic
// workload generators shaped like the paper's data sets, and association
// rule induction from closed item sets.
//
// Quick start:
//
//	db := fim.NewDatabase([][]int{{0, 1, 2}, {0, 2}, {1, 2}})
//	patterns, err := fim.MineClosed(db, 2) // IsTa, minimum support 2
//
// All mining functions report absolute supports and accept any database
// produced by NewDatabase, ReadFile or the generators. See DESIGN.md for
// the system inventory and EXPERIMENTS.md for the reproduced evaluation.
package fim

import (
	"context"
	"errors"
	"io"
	"os"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/guard"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/result"
	"repro/internal/rules"
	"repro/internal/txdb"
)

// Re-exported core types. The aliases make the internal packages' types
// part of the public API without duplicating them.
type (
	// Item is an item code.
	Item = itemset.Item
	// ItemSet is a canonical (strictly ascending) set of item codes.
	ItemSet = itemset.Set
	// Database is the flat, immutable columnar transaction store every
	// miner runs on (see DESIGN.md §5g): one items array, one offsets
	// array, optional row weights and an optional item names column.
	// NewDatabase, the readers and the generators all produce it, and the
	// parallel engines shard it zero-copy.
	Database = txdb.DB
	// Source is any transaction database representation the miners
	// accept: a *Database or any other implementation of the minimal
	// read-only contract (NumItems/NumTx/Tx/Weight).
	Source = txdb.Source
	// Pattern is a mined item set with its absolute support.
	Pattern = result.Pattern
	// ResultSet is a collected, comparable set of patterns.
	ResultSet = result.Set
	// Reporter receives patterns as they are mined.
	Reporter = result.Reporter
	// ReporterFunc adapts a function to Reporter.
	ReporterFunc = result.ReporterFunc
	// Rule is an association rule derived from closed item sets.
	Rule = rules.Rule
)

// Algorithm names a mining algorithm.
type Algorithm string

// The available algorithms. IsTa is the paper's primary contribution and
// the default. The set of valid names is defined by the engine registry
// (each algorithm package registers itself); these constants cover the
// built-in miners.
const (
	IsTa           Algorithm = "ista"            // §3.2-3.4: cumulative intersection, prefix tree
	CarpenterTable Algorithm = "carpenter-table" // §3.1.2: transaction set enumeration, matrix
	CarpenterLists Algorithm = "carpenter-lists" // §3.1.1: transaction set enumeration, tid lists
	FPClose        Algorithm = "fpclose"         // FP-growth, closed output (Grahne & Zhu)
	LCM            Algorithm = "lcm"             // ppc-extension closed miner (Uno et al.)
	EclatClosed    Algorithm = "eclat"           // Eclat with closed output (Zaki et al.)
	Cobbler        Algorithm = "cobbler"         // combined column/row enumeration (Pan et al.)
	FlatCumulative Algorithm = "flat"            // Mielikäinen's flat cumulative scheme
)

// Algorithms lists the registered mining algorithms in presentation
// order (the paper's contributions first).
func Algorithms() []Algorithm {
	names := engine.Names()
	out := make([]Algorithm, len(names))
	for i, n := range names {
		out[i] = Algorithm(n)
	}
	return out
}

// Target selects which family of frequent item sets Mine reports. The
// zero value is TargetClosed.
type Target = engine.Target

// The available targets. Not every algorithm supports every target; see
// AlgorithmInfo.Targets.
const (
	// TargetClosed mines the closed frequent item sets (the default).
	TargetClosed = engine.Closed
	// TargetAll mines every frequent item set.
	TargetAll = engine.All
	// TargetMaximal mines the maximal frequent item sets.
	TargetMaximal = engine.Maximal
)

// MiningStats carries per-run observability: the database shape, the
// run counters (an embedded obs.Counts, so st.NodesPeak and st.Isects
// are direct fields) and prep/mine timings.
type MiningStats = engine.Stats

// ProgressEvent is one rate-limited progress snapshot of a running mine:
// the elapsed wall clock and the counters at the moment of the snapshot,
// the same nine as MiningStats. Snapshots are monotone (each counter is
// ≥ its value in the previous event of the run) and the final event —
// marked Final — agrees exactly with the run's MiningStats counters. The
// repository peak is NodesPeak (formerly Nodes). See DESIGN.md §5e.
type ProgressEvent = obs.Progress

// SpanEvent is one completed run phase (prep, mine, merge, …) with its
// duration and the counter values at its end. See DESIGN.md §5e.
type SpanEvent = obs.Span

// AlgorithmInfo describes one registered algorithm.
type AlgorithmInfo struct {
	// Name is the Algorithm value to pass in Options.
	Name Algorithm
	// Doc is a one-line description.
	Doc string
	// Targets lists the supported targets.
	Targets []Target
	// Parallel reports whether a parallel engine is registered.
	Parallel bool
}

// AlgorithmInfos describes the registered algorithms in presentation
// order, for generated help texts and tables.
func AlgorithmInfos() []AlgorithmInfo {
	regs := engine.Registrations()
	out := make([]AlgorithmInfo, len(regs))
	for i, r := range regs {
		out[i] = AlgorithmInfo{
			Name:     Algorithm(r.Name),
			Doc:      r.Doc,
			Targets:  append([]Target(nil), r.Targets...),
			Parallel: r.Parallelizable(),
		}
	}
	return out
}

// Partial-result errors. A mining run that stops early — canceled,
// deadline exceeded, or budget exhausted — returns one of these typed
// errors (match with errors.Is), and the patterns already reported form a
// valid prefix of the full result: every reported pattern is a genuinely
// closed frequent item set with its exact support, only the tail of the
// enumeration is missing. See DESIGN.md §5b for the failure model.
var (
	// ErrCanceled reports cancellation through Options.Done (or a
	// Context without its own error).
	ErrCanceled = mining.ErrCanceled
	// ErrDeadline reports that Options.Deadline (or the Context's
	// deadline) passed before the run finished.
	ErrDeadline = guard.ErrDeadline
	// ErrBudget reports that Options.MaxPatterns or Options.MaxTreeNodes
	// was exhausted; the returned error wraps ErrBudget with the specific
	// bound.
	ErrBudget = guard.ErrBudget
)

// PanicError is the error Mine returns when the selected miner — or a
// Reporter callback — panicked: the panic is recovered, all worker
// goroutines are drained, and the recovered value plus the panicking
// goroutine's stack are carried in the error. Match with errors.As.
type PanicError = guard.PanicError

// ErrPartial is wrapped by every degraded-mode result: a parallel run
// whose failed shards exhausted their retry budget returns a
// *PartialError (which wraps ErrPartial) while the patterns already
// reported remain sound — every reported pattern is genuinely closed in
// the full database and its reported support is a lower bound of (and
// the guarantee threshold for) the true support. Match with errors.Is.
var ErrPartial = engine.ErrPartial

// PartialError reports a degraded parallel run: the shards that were
// abandoned after retry exhaustion, each with its per-shard cause.
// The run's output covers every shard not listed. Match with errors.As.
type PartialError = engine.PartialError

// ShardError is one abandoned work unit inside a PartialError.
type ShardError = engine.ShardError

// Options configures Mine.
type Options struct {
	// MinSupport is the absolute minimum support (number of
	// transactions); values below 1 act as 1.
	MinSupport int
	// Algorithm selects the miner; empty selects IsTa.
	Algorithm Algorithm
	// Target selects what is mined: closed sets (default), all frequent
	// sets, or maximal sets. Mine fails with an error wrapping
	// ErrUnsupportedTarget if the selected algorithm did not declare the
	// target.
	Target Target
	// Stats, when non-nil, is overwritten with per-run statistics
	// (pattern count, operation counters, repository peak, prep and mine
	// timings). Collecting them costs a few atomic updates per budget
	// check, nothing per pattern-search step.
	Stats *MiningStats
	// Done, when closed, cancels the run; Mine returns an error and the
	// already reported patterns form an incomplete prefix of the result.
	Done <-chan struct{}
	// Context, when non-nil, cancels the run when the context is done;
	// Mine then returns the context's error (context.Canceled or
	// context.DeadlineExceeded). A context deadline is additionally
	// enforced through the budget checks, in which case it surfaces as
	// ErrDeadline. May be combined with Done.
	Context context.Context
	// Deadline, when non-zero, bounds the run by wall clock; Mine returns
	// ErrDeadline once it passes, and the already reported patterns form a
	// valid prefix of the result.
	Deadline time.Time
	// MaxPatterns, when positive, caps the number of reported patterns;
	// Mine reports at most MaxPatterns patterns and returns an error
	// wrapping ErrBudget if the cap cut the result off.
	MaxPatterns int
	// MaxTreeNodes, when positive, caps the size of the miner's
	// repository (prefix-tree nodes for IsTa and the flat scheme, stored
	// sets for Carpenter/Cobbler; per worker in a parallel run) to bound
	// memory on dense inputs whose repository would otherwise grow
	// exponentially. Mine returns an error wrapping ErrBudget once the
	// cap is exceeded. FP-close and Eclat keep their CFI-tree outside the
	// budget, and LCM keeps no repository; all three ignore the field.
	MaxTreeNodes int
	// Retries, when positive, arms the self-healing supervisor in the
	// parallel engines: a shard or branch worker that panicked is re-mined
	// sequentially up to Retries times, and only when every attempt
	// panics does the run degrade to a *PartialError carrying the
	// per-shard report. Any other worker error aborts the run, as does
	// every failure with zero Retries. Sequential engines ignore the
	// field — they have no independent work units to re-mine. See
	// DESIGN.md §5f.
	Retries int
	// Parallelism selects the number of worker goroutines for the
	// algorithms with a parallel engine (IsTa and CarpenterTable): 0 or 1
	// run the sequential miner unchanged, n >= 2 runs n workers, and
	// negative values use runtime.GOMAXPROCS(0). The parallel engines
	// report exactly the pattern set of the sequential run in a
	// deterministic order (see internal/parallel). Other algorithms
	// ignore the field and always run sequentially.
	Parallelism int
	// OnProgress, when non-nil, receives rate-limited progress snapshots
	// of the run, including a terminal one with Final set that is
	// delivered before Mine returns (even on cancellation) and agrees
	// exactly with Stats. The callback runs on mining goroutines and must
	// be fast; it must not call back into Mine. Snapshots are fed from
	// the amortized budget-check slow path, so a run without OnProgress,
	// TraceWriter and PublishExpvar pays nothing.
	OnProgress func(ProgressEvent)
	// ProgressInterval is the minimum interval between OnProgress
	// snapshots (the Final one excepted); 0 uses a 200ms default.
	ProgressInterval time.Duration
	// TraceWriter, when non-nil, receives one JSON line per observability
	// event: a span per completed run phase (prep, mine, merge) and every
	// progress snapshot. See DESIGN.md §5e for the schema.
	TraceWriter io.Writer
	// PublishExpvar, when true, publishes the run's counters and phase
	// timings into the process-wide expvar map "fim" (exposed on
	// /debug/vars by net/http's default mux). Later runs overwrite the
	// latest-value metrics and accumulate the per-phase ones.
	PublishExpvar bool
}

// Mine streams the closed frequent item sets of db into rep using the
// selected algorithm. All algorithms produce the identical pattern set
// (the test suite cross-checks them); they differ in performance
// characteristics — see DESIGN.md and the fimbench tool.
//
// Mine is the guarded entry point: cancellation (Done / Context), the
// wall-clock Deadline, and the MaxPatterns / MaxTreeNodes budgets stop
// the run with the corresponding typed error while the already reported
// patterns remain a valid prefix of the result, and a panic anywhere in
// the selected miner or in rep is contained and returned as a
// *PanicError instead of crashing the process.
func Mine(db Source, opts Options, rep Reporter) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = guard.NewPanicError(r)
		}
	}()

	// Fold the context into the done channel and the effective deadline.
	done := opts.Done
	deadline := opts.Deadline
	if ctx := opts.Context; ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
			deadline = d
		}
		if done == nil {
			done = ctx.Done()
		} else {
			// A done channel closed before the run starts must cancel
			// deterministically (matching the unmerged path, whose first
			// tick polls immediately); the merge goroutine alone could
			// lose that race against a fast run.
			select {
			case <-done:
				return mining.ErrCanceled
			default:
			}
			merged := make(chan struct{})
			stop := make(chan struct{})
			defer close(stop)
			go func(src <-chan struct{}) {
				select {
				case <-ctx.Done():
				case <-src:
				case <-stop:
					return
				}
				close(merged)
			}(done)
			done = merged
		}
	}

	budget := guard.Budget{
		Deadline:     deadline,
		MaxPatterns:  opts.MaxPatterns,
		MaxTreeNodes: opts.MaxTreeNodes,
	}
	var g *guard.Guard
	if budget.Enabled() {
		g = guard.New(budget)
		rep = guard.Limit(g, rep)
	}

	err = mine(db, opts, g, done, rep)

	// Surface the most specific cause. A budget trip can race a (or be
	// reported as a) generic cancellation, and a pattern budget reached on
	// the very last patterns lets the miner finish without error; the
	// guard's latched error is authoritative in both cases. A plain
	// cancellation driven by the context reports the context's error.
	if cause := g.Err(); cause != nil && (err == nil || errors.Is(err, mining.ErrCanceled)) {
		err = cause
	}
	if errors.Is(err, mining.ErrCanceled) && opts.Context != nil && opts.Context.Err() != nil {
		err = opts.Context.Err()
	}
	return err
}

// ErrUnknownAlgorithm is wrapped by Mine's error when Options.Algorithm
// is not a registered name; the error text lists the available names.
var ErrUnknownAlgorithm = engine.ErrUnknownAlgorithm

// ErrUnsupportedTarget is wrapped by Mine's error when the selected
// algorithm did not declare Options.Target.
var ErrUnsupportedTarget = engine.ErrUnsupportedTarget

// mine dispatches to the selected algorithm through the engine registry
// with the resolved done channel and guard.
func mine(db Source, opts Options, g *guard.Guard, done <-chan struct{}, rep Reporter) error {
	name := string(opts.Algorithm)
	if name == "" {
		name = string(IsTa)
	}
	return engine.Run(db, name, engine.Spec{
		MinSupport:    opts.MinSupport,
		Target:        opts.Target,
		Workers:       opts.Parallelism,
		Done:          done,
		Guard:         g,
		Stats:         opts.Stats,
		Sink:          sinkOf(opts),
		ProgressEvery: opts.ProgressInterval,
		Retries:       opts.Retries,
	}, rep)
}

// sinkOf assembles the run's observability sink from the Options surface;
// nil — the atomic-free fast path — when no surface is requested.
func sinkOf(opts Options) obs.Sink {
	var sinks []obs.Sink
	if opts.TraceWriter != nil {
		sinks = append(sinks, obs.NewJSONSink(opts.TraceWriter))
	}
	if opts.OnProgress != nil {
		sinks = append(sinks, obs.ProgressSink(opts.OnProgress))
	}
	if opts.PublishExpvar {
		sinks = append(sinks, obs.NewExpvarSink(""))
	}
	return obs.Multi(sinks...)
}

// MineClosed mines the closed frequent item sets of db with IsTa and
// returns them in canonical order.
func MineClosed(db Source, minSupport int) (*ResultSet, error) {
	var out ResultSet
	if err := Mine(db, Options{MinSupport: minSupport}, out.Collect()); err != nil {
		return nil, err
	}
	out.Sort()
	return &out, nil
}

// MineParallel mines the closed frequent item sets of db with the
// parallel IsTa engine on the given number of workers (values < 1 select
// runtime.GOMAXPROCS(0)) and returns them in canonical order — the same
// patterns MineClosed returns, mined on multiple cores.
func MineParallel(db Source, minSupport, workers int) (*ResultSet, error) {
	if workers == 0 {
		workers = -1 // Options.Parallelism uses 0 for "sequential"
	}
	var out ResultSet
	if err := Mine(db, Options{MinSupport: minSupport, Parallelism: workers}, out.Collect()); err != nil {
		return nil, err
	}
	out.Sort()
	return &out, nil
}

// MineAll mines every frequent item set (not only closed ones) with
// FP-growth and returns them in canonical order. The output can be
// exponentially larger than MineClosed's (§2.3 of the paper).
func MineAll(db Source, minSupport int) (*ResultSet, error) {
	var out ResultSet
	err := Mine(db, Options{MinSupport: minSupport, Algorithm: FPClose, Target: TargetAll}, out.Collect())
	if err != nil {
		return nil, err
	}
	out.Sort()
	return &out, nil
}

// MineMaximal mines the maximal frequent item sets (closed sets without a
// frequent proper superset) and returns them in canonical order.
func MineMaximal(db Source, minSupport int) (*ResultSet, error) {
	var out ResultSet
	err := Mine(db, Options{MinSupport: minSupport, Algorithm: EclatClosed, Target: TargetMaximal}, out.Collect())
	if err != nil {
		return nil, err
	}
	out.Sort()
	return &out, nil
}

// NewDatabase builds a database from rows of item codes. Rows are
// canonicalized (sorted, duplicates dropped); the item universe is the
// smallest one containing every item.
func NewDatabase(rows [][]int) *Database { return txdb.FromInts(rows...) }

// NewItemSet builds a canonical item set from item codes.
func NewItemSet(items ...int) ItemSet { return itemset.FromInts(items...) }

// ReadFile loads a transaction database in FIMI format (one transaction
// per line, whitespace-separated items — numeric codes or names).
func ReadFile(path string) (*Database, error) { return dataset.ReadFile(path) }

// WriteFile stores a database in FIMI format.
func WriteFile(path string, db Source) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, db); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read parses a FIMI-format database from r.
func Read(r io.Reader) (*Database, error) { return dataset.Read(r) }

// ReadLimits bounds what ReadLimited accepts from untrusted input:
// MaxTxLen caps the items on one line, MaxItems caps the item universe
// (numeric codes and distinct names alike). The zero value imposes no
// bounds. See DESIGN.md §5h for the admission model.
type ReadLimits = dataset.Limits

// ErrInputLimit is wrapped by every error ReadLimited reports for input
// exceeding a configured ReadLimits bound; the concrete *InputLimitError
// names the offending line. Match with errors.Is.
var ErrInputLimit = dataset.ErrLimit

// InputLimitError reports the input line that exceeded a ReadLimits
// bound. Match with errors.As.
type InputLimitError = dataset.LimitError

// ReadLimited parses a FIMI-format database from r, rejecting input that
// exceeds the given admission limits with an error wrapping
// ErrInputLimit. Use it (instead of Read) for untrusted input: a single
// hostile line can otherwise allocate an arbitrarily large transaction
// or item universe.
func ReadLimited(r io.Reader, lim ReadLimits) (*Database, error) {
	return dataset.ReadLimited(r, lim)
}

// ReadFileLimited is ReadFile under the given admission limits.
func ReadFileLimited(path string, lim ReadLimits) (*Database, error) {
	return dataset.ReadFileLimited(path, lim)
}

// Write renders db in FIMI format to w. A *Database with a names column
// is written with item names, every other source with numeric codes; each
// row is repeated per its weight so the multiset round-trips.
func Write(w io.Writer, db Source) error { return dataset.Write(w, db) }

// Transpose exchanges the roles of items and transactions (§4 of the
// paper: the gene-expression duality).
func Transpose(db Source) *Database { return txdb.FromSource(db).Transpose() }

// Support counts the transactions of db containing items.
func Support(db Source, items ItemSet) int { return result.Support(db, items) }

// IsClosed reports whether items equals the intersection of all
// transactions of db containing it (§2.4).
func IsClosed(db Source, items ItemSet) bool { return result.IsClosed(db, items) }

// RuleOptions configures association rule induction.
type RuleOptions = rules.Options

// Rules induces association rules from closed frequent patterns (closed
// sets preserve all support information, §2.3). total is the number of
// transactions in the mined database.
func Rules(closed *ResultSet, total int, opts RuleOptions) []Rule {
	return rules.FromClosed(closed, total, opts)
}

// SupportIndex answers support queries for arbitrary item sets from a
// mined closed collection: the support of any frequent item set is the
// maximum support of the closed sets containing it (§2.3).
type SupportIndex = rules.Index

// NewSupportIndex builds a support index over closed patterns mined from
// a database with total transactions.
func NewSupportIndex(closed *ResultSet, total int) *SupportIndex {
	return rules.NewIndex(closed, total)
}
