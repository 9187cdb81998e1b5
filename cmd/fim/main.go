// Command fim mines closed (or all / maximal) frequent item sets from a
// transaction database file in FIMI format (one transaction per line,
// whitespace-separated items).
//
// Usage:
//
//	fim -algo ista -support 8 data.dat            # closed sets to stdout
//	fim -algo carpenter-table -support 0.05 data.dat   # relative support
//	fim -target all -support 10 -out out.txt data.dat
//
// Output lines follow Borgelt's format: the items of the set separated by
// spaces, followed by the absolute support in parentheses. A database
// argument of "-" reads the database from standard input.
//
// -progress prints rate-limited progress snapshots (elapsed time,
// patterns, operations, repository size) to stderr while mining;
// -debug-addr serves expvar counters on /debug/vars and the pprof
// profiles on /debug/pprof/ for the lifetime of the process.
//
// With -snapshot-dir the transactions are fed through the crash-safe
// incremental miner instead of the batch engine: every transaction is
// write-ahead logged and periodically snapshotted into the directory,
// and a rerun with -resume skips the transactions already durable there
// and continues from the exact point a previous (possibly crashed) run
// reached.
//
// An interrupt (SIGINT / SIGTERM) cancels the run cooperatively: the
// patterns found so far are still written — a valid prefix of the full
// result — and fim exits 3, like an expired -timeout.
//
// Exit codes distinguish failure modes for scripting:
//
//	0  complete result written
//	1  internal failure (I/O error writing output, miner fault)
//	2  malformed input or bad flags — nothing mined
//	3  deadline or budget exhausted, or interrupted — the output is a
//	   valid but truncated prefix of the full result
//	4  corrupt persistent state in -snapshot-dir — recovery refused
//	   rather than silently dropping durable transactions
//	5  degraded result — with -retries, one or more parallel shards
//	   stayed failed after retry exhaustion; the output holds the
//	   surviving shards' patterns (each genuinely closed, support a
//	   lower bound) and the abandoned shards are reported to stderr
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	_ "net/http/pprof" // -debug-addr serves /debug/pprof/
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	fim "repro"
	"repro/internal/obs"
)

// algoHelp derives the -algo usage text from the engine registry, so a
// newly registered miner shows up without touching this file.
func algoHelp() string {
	return "algorithm: " + strings.Join(algoNames(), " | ") + " (default depends on -target)"
}

func algoNames() []string {
	infos := fim.AlgorithmInfos()
	names := make([]string, len(infos))
	for i, info := range infos {
		names[i] = string(info.Name)
	}
	return names
}

// defaultAlgorithm picks the miner used when -algo is not given: the
// paper's IsTa for closed sets, and the conventional choices for the
// other targets.
func defaultAlgorithm(target fim.Target) fim.Algorithm {
	switch target {
	case fim.TargetAll:
		return fim.FPClose
	case fim.TargetMaximal:
		return fim.EclatClosed
	}
	return fim.IsTa
}

func main() {
	var (
		algo    = flag.String("algo", "", algoHelp())
		target  = flag.String("target", "closed", "target: closed | all | maximal")
		support = flag.Float64("support", 2, "minimum support: absolute if >= 1, else a fraction of the transactions")
		out     = flag.String("out", "", "output file (default stdout)")
		stats   = flag.Bool("stats", false, "print workload statistics, per-run counters and timing to stderr")
		timeout = flag.Duration("timeout", 0, "optional wall-clock limit; on expiry the patterns found so far are written and fim exits 3")
		maxPat  = flag.Int("max-patterns", 0, "stop after this many patterns (0 = unlimited); the truncated output is written and fim exits 3")
		maxNode = flag.Int("max-nodes", 0, "cap the miner's repository (prefix-tree nodes / stored sets, 0 = unlimited); on excess fim writes the prefix found so far and exits 3")
		par     = flag.Int("p", 0, "parallel workers for the algorithms with a parallel engine (0 or 1 = sequential, -1 = all cores); the pattern set is identical to the sequential run")
		retries = flag.Int("retries", 0, "self-healing: retry a failed parallel shard (or transient durable-store I/O) up to n times before degrading; a run that still lost shards writes the surviving patterns and exits 5")
		repair  = flag.Bool("repair", false, "with -snapshot-dir: quarantine damaged newer snapshot generations that recovery had to skip (renamed aside, reported to stderr) instead of leaving them in place")

		progress  = flag.Bool("progress", false, "print rate-limited progress snapshots to stderr while mining")
		debugAddr = flag.String("debug-addr", "", "serve debug endpoints (expvar on /debug/vars, pprof on /debug/pprof/) on this address for the process lifetime")

		snapDir   = flag.String("snapshot-dir", "", "mine through the crash-safe incremental miner, persisting state into this directory (closed target, ista only)")
		resume    = flag.Bool("resume", false, "with -snapshot-dir: continue from the state recovered there, skipping the transactions it already holds")
		snapEvery = flag.Int("snapshot-every", 0, "with -snapshot-dir: snapshot and rotate the log every n transactions (0 = 1024, negative = only at exit)")

		maxTxLen = flag.Int("max-tx-len", 0, "reject input transactions longer than this many items (0 = unlimited); fim exits 2 naming the offending line")
		maxItems = flag.Int("max-items", 0, "reject item codes (or distinct named items) at or above this bound (0 = unlimited); fim exits 2 naming the offending line")

		expr      = flag.Bool("expr", false, "input is a gene expression matrix (CSV/TSV of log ratios), discretized per the paper's §4")
		threshold = flag.Float64("threshold", 0.2, "with -expr: |log ratio| above this is over-/under-expressed")
		orient    = flag.String("orient", "conditions", "with -expr: conditions | genes — what becomes the transactions")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fim [flags] <database.dat | matrix.csv>")
		flag.Usage()
		os.Exit(2)
	}
	var tgt fim.Target
	switch *target {
	case "closed":
		tgt = fim.TargetClosed
	case "all":
		tgt = fim.TargetAll
	case "maximal":
		tgt = fim.TargetMaximal
	default:
		failUsage(fmt.Errorf("unknown target %q (want closed, all or maximal)", *target))
	}
	name := fim.Algorithm(*algo)
	if name == "" {
		name = defaultAlgorithm(tgt)
	}
	info, known := algorithmInfo(name)
	if !known {
		failUsage(fmt.Errorf("unknown algorithm %q (available: %s)", name, strings.Join(algoNames(), ", ")))
	}
	if !supportsTarget(info, tgt) {
		failUsage(fmt.Errorf("algorithm %q does not mine %s sets", name, *target))
	}
	if *timeout < 0 || *maxPat < 0 || *maxNode < 0 {
		failUsage(errors.New("-timeout, -max-patterns and -max-nodes must not be negative"))
	}
	if *snapDir != "" {
		// The durable path is the online IsTa miner: the prefix tree is
		// the state being checkpointed, so it cannot serve other
		// algorithms or targets, and the guard/parallel knobs of the
		// batch engine do not apply.
		if tgt != fim.TargetClosed {
			failUsage(errors.New("-snapshot-dir mines closed sets only"))
		}
		if name != fim.IsTa {
			failUsage(fmt.Errorf("-snapshot-dir requires the ista algorithm, not %q", name))
		}
		if *par != 0 || *timeout != 0 || *maxPat != 0 || *maxNode != 0 {
			failUsage(errors.New("-snapshot-dir cannot be combined with -p, -timeout, -max-patterns or -max-nodes"))
		}
	} else if *resume {
		failUsage(errors.New("-resume requires -snapshot-dir"))
	} else if *repair {
		failUsage(errors.New("-repair requires -snapshot-dir"))
	}
	if *retries < 0 {
		failUsage(errors.New("-retries must not be negative"))
	}
	if *maxTxLen < 0 || *maxItems < 0 {
		failUsage(errors.New("-max-tx-len and -max-items must not be negative"))
	}

	// Start the debug server before the input is read, so the endpoints
	// are reachable while fim blocks on a slow reader (e.g. stdin). The
	// expvar import (via the fim package) and the pprof import above hook
	// the default mux, which is all http.Serve(ln, nil) needs.
	if *debugAddr != "" {
		ln, lerr := net.Listen("tcp", *debugAddr)
		if lerr != nil {
			fail(lerr)
		}
		fmt.Fprintf(os.Stderr, "fim: debug server listening on http://%s/debug/vars\n", ln.Addr())
		go http.Serve(ln, nil)
	}

	var db fim.Source
	var err error
	lim := fim.ReadLimits{MaxTxLen: *maxTxLen, MaxItems: *maxItems}
	switch {
	case *expr:
		db, err = loadExpression(flag.Arg(0), *threshold, *orient)
	case flag.Arg(0) == "-":
		db, err = fim.ReadLimited(os.Stdin, lim)
	default:
		db, err = fim.ReadFileLimited(flag.Arg(0), lim)
	}
	if err != nil {
		failUsage(err)
	}
	// Named input keeps its name table for the output; numeric and
	// generated stores carry none.
	var names []string
	if d, ok := db.(*fim.Database); ok {
		names = d.Names()
	}
	minsup := int(*support)
	if *support > 0 && *support < 1 {
		minsup = int(math.Ceil(*support * float64(fim.TotalWeight(db))))
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "fim: workload %s, minsup %d\n", fim.StatsOf(db), minsup)
	}

	// An interrupt cancels the run cooperatively instead of killing the
	// process: the miners poll the context at their budget checks, the
	// patterns found so far are flushed, and fim exits 3. A second signal
	// falls back to the default handler (immediate death) so a hung run
	// can still be killed.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	opts := fim.Options{
		MinSupport:   minsup,
		Algorithm:    name,
		Target:       tgt,
		Parallelism:  *par,
		MaxPatterns:  *maxPat,
		MaxTreeNodes: *maxNode,
		Context:      ctx,
		Retry:        fim.RetryPolicy{MaxAttempts: *retries},
	}
	if *timeout > 0 {
		opts.Deadline = time.Now().Add(*timeout)
	}
	var runStats fim.MiningStats
	if *stats {
		opts.Stats = &runStats
	}
	if *progress {
		opts.OnProgress = printProgress
	}
	opts.PublishExpvar = *debugAddr != ""

	start := time.Now()
	var patterns *fim.ResultSet
	truncated := false
	var partial *fim.PartialError
	if *snapDir != "" {
		patterns, truncated = mineDurable(ctx, db, minsup, *snapDir, *snapEvery, *retries, *resume, *repair, *progress, &runStats)
		if truncated {
			err = fim.ErrCanceled
		}
	} else {
		var set fim.ResultSet
		err = fim.Mine(db, opts, set.Collect())
		set.Sort()
		patterns = &set
		// A tripped deadline, budget, or cancellation (including an
		// interrupt surfacing as the context's error) still produced a
		// valid prefix of the result; write it before exiting so callers
		// can use what was found. A degraded run — shards abandoned after
		// retry exhaustion — likewise wrote every surviving shard's
		// patterns; it is reported with its own exit code.
		truncated = errors.Is(err, fim.ErrDeadline) || errors.Is(err, fim.ErrBudget) ||
			errors.Is(err, fim.ErrCanceled) || errors.Is(err, context.Canceled)
		if err != nil && !truncated && !errors.As(err, &partial) {
			fail(err)
		}
	}
	elapsed := time.Since(start)

	// The result is only complete once the output is written and closed;
	// both can fail (full disk, quota), so both are checked — a close
	// error with the bytes already gone must not exit 0. Write hands its
	// writer pieces of about 64 KiB, so neither stdout nor the file needs
	// a buffer of its own.
	w := io.Writer(os.Stdout)
	var closeOut func() error
	if *out != "" {
		f, cerr := os.Create(*out)
		if cerr != nil {
			fail(cerr)
		}
		w = f
		closeOut = f.Close
	}
	if werr := patterns.Write(w, names); werr != nil {
		if closeOut != nil {
			closeOut()
		}
		fail(werr)
	}
	if closeOut != nil {
		if cerr := closeOut(); cerr != nil {
			fail(cerr)
		}
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "fim: %s\n", runStats.String())
		fmt.Fprintf(os.Stderr, "fim: %d %s sets in %s\n", patterns.Len(), *target, elapsed.Round(time.Millisecond))
	}
	if truncated {
		fmt.Fprintf(os.Stderr, "fim: truncated: %v (%d patterns written)\n", err, patterns.Len())
		os.Exit(3)
	}
	if partial != nil {
		fmt.Fprintf(os.Stderr, "fim: degraded: %v (%d patterns written)\n", partial, patterns.Len())
		os.Exit(5)
	}
}

// printProgress renders one progress snapshot as a stderr line; it is
// the -progress callback for both the batch and the durable path.
func printProgress(p fim.ProgressEvent) {
	final := ""
	if p.Final {
		final = " final"
	}
	fmt.Fprintf(os.Stderr, "fim: progress elapsed=%s %s%s\n",
		p.Elapsed.Round(time.Millisecond), obs.FormatCounts(p.Counts), final)
}

// mineDurable feeds the database through the crash-safe incremental
// miner backed by dir, resuming past the transactions already durable
// there, and returns the closed sets at minsup; st receives the
// durable-path run counters (replayed and added transactions, snapshot
// writes, repository peak). Corrupt persistent state exits 4; a prior
// state without -resume exits 2 so a stale directory is never extended
// by accident. An interrupt (ctx canceled) stops the feed between
// transactions, snapshots the durable prefix and returns it with
// truncated set — every transaction fed so far stays durable, and a
// -resume rerun continues exactly where the interrupt landed.
func mineDurable(ctx context.Context, db fim.Source, minsup int, dir string, every, retries int, resume, repair, progress bool, st *fim.MiningStats) (_ *fim.ResultSet, truncated bool) {
	start := time.Now()
	n := db.NumTx()
	dm, err := fim.OpenDurable(dir, fim.DurableOptions{
		Items:         db.NumItems(),
		SnapshotEvery: every,
		Retry:         fim.RetryPolicy{MaxAttempts: retries},
		Repair:        repair,
	})
	if err != nil {
		if errors.Is(err, fim.ErrCorrupt) {
			failCorrupt(err)
		}
		fail(err)
	}
	if rep := dm.RepairReport(); !rep.Empty() {
		fmt.Fprintf(os.Stderr, "fim: repair: %s\n", rep.String())
	}
	done := dm.Transactions()
	switch {
	case done > 0 && !resume:
		failUsage(fmt.Errorf("%s already holds %d transactions; pass -resume to continue or point -snapshot-dir at a fresh directory", dir, done))
	case done > n:
		failUsage(fmt.Errorf("%s holds %d transactions but the database has only %d — wrong directory for this input", dir, done, n))
	}
	if done > 0 {
		fmt.Fprintf(os.Stderr, "fim: resuming at transaction %d of %d\n", done+1, n)
	}
	lastProgress := start
	for k := done; k < n; k++ {
		if ctx.Err() != nil {
			// Interrupted: stop feeding, keep everything already durable.
			truncated = true
			break
		}
		if err := dm.AddSet(db.Tx(k)); err != nil {
			fail(err)
		}
		if progress && time.Since(lastProgress) >= 200*time.Millisecond {
			lastProgress = time.Now()
			fmt.Fprintf(os.Stderr, "fim: progress elapsed=%s added=%d/%d %s\n",
				time.Since(start).Round(time.Millisecond), k+1, n,
				obs.FormatCounts(obs.Counts{NodesPeak: int64(dm.NodeCount()), Retries: int64(dm.Retries())}))
		}
	}
	// Leave a snapshot at the final (or interrupted) state so the next
	// open replays nothing.
	if err := dm.Snapshot(); err != nil {
		fail(err)
	}
	patterns := dm.ClosedSet(minsup)
	*st = fim.MiningStats{
		Algorithm:           string(fim.IsTa),
		Target:              fim.TargetClosed,
		MinSupport:          minsup,
		Transactions:        n,
		Items:               db.NumItems(),
		PreppedTransactions: dm.Transactions(),
		PreppedItems:        dm.Items(),
		Counts: obs.Counts{
			Patterns:  int64(patterns.Len()),
			NodesPeak: int64(dm.NodeCount()),
			Retries:   int64(dm.Retries()),
		},
		MineTime:  time.Since(start),
		Replayed:  done,
		Added:     dm.Transactions() - done,
		Snapshots: dm.Snapshots(),
	}
	if err := dm.Close(); err != nil {
		fail(err)
	}
	return patterns, truncated
}

// algorithmInfo finds the registry entry for name, so a typo fails fast
// with exit 2 instead of after the database is loaded.
func algorithmInfo(name fim.Algorithm) (fim.AlgorithmInfo, bool) {
	for _, info := range fim.AlgorithmInfos() {
		if info.Name == name {
			return info, true
		}
	}
	return fim.AlgorithmInfo{}, false
}

// supportsTarget reports whether the algorithm declared the target.
func supportsTarget(info fim.AlgorithmInfo, tgt fim.Target) bool {
	for _, t := range info.Targets {
		if t == tgt {
			return true
		}
	}
	return false
}

// loadExpression runs the paper's §4 pipeline: parse a log-ratio matrix
// and discretize it into over-/under-expression items (code 2x = "x
// over-expressed", 2x+1 = "x under-expressed").
func loadExpression(path string, threshold float64, orient string) (fim.Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := fim.ReadMatrixCSV(f)
	if err != nil {
		return nil, err
	}
	switch orient {
	case "conditions":
		return fim.Discretize(m, threshold, threshold, fim.ConditionsAsTransactions), nil
	case "genes":
		return fim.Discretize(m, threshold, threshold, fim.GenesAsTransactions), nil
	}
	return nil, fmt.Errorf("unknown orientation %q (want conditions or genes)", orient)
}

// fail reports an internal failure (exit 1): the input was fine but the
// run could not complete or its output could not be written.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "fim:", err)
	os.Exit(1)
}

// failUsage reports a usage error (exit 2): malformed input or bad flags;
// nothing was mined.
func failUsage(err error) {
	fmt.Fprintln(os.Stderr, "fim:", err)
	os.Exit(2)
}

// failCorrupt reports unrecoverable persistent state (exit 4): the
// snapshot directory holds damage that would silently lose durable
// transactions, so mining refused to proceed.
func failCorrupt(err error) {
	fmt.Fprintln(os.Stderr, "fim:", err)
	os.Exit(4)
}
