package engine

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// Stats holds the observability counters of one mining run. Run fills it
// when Spec.Stats is non-nil; the counters ride the amortized slow path
// of mining.Control (and the reporting path), so collecting them does not
// perturb the mining hot loops.
type Stats struct {
	// Algorithm, Target and MinSupport echo the resolved run parameters
	// (after algorithm lookup and support clamping).
	Algorithm  string
	Target     Target
	MinSupport int
	// Parallel reports whether the run used the algorithm's parallel
	// engine.
	Parallel bool

	// Transactions and Items describe the input database;
	// PreppedTransactions and PreppedItems the database after
	// preprocessing (infrequent items and emptied transactions removed).
	Transactions        int
	Items               int
	PreppedTransactions int
	PreppedItems        int

	// Counts holds the run's counters: patterns, work units,
	// checkpoints, repository peak, tid-set kernel and self-healing
	// counters (see obs.Counts). Retries is nonzero only with Spec.Retry
	// enabled; Degraded nonzero means the run returned a *PartialError.
	obs.Counts

	// PrepTime and MineTime split the run's wall clock between the
	// shared preprocessing pipeline and the miner itself.
	PrepTime time.Duration
	MineTime time.Duration

	// Durable-path counters, filled only by crash-safe runs through the
	// persistence layer (cmd/fim -snapshot-dir, fim.OpenDurable); all
	// zero for batch runs. Replayed counts the transactions recovered
	// from the snapshot + write-ahead log instead of being re-added,
	// Added the transactions newly appended by this run, and Snapshots
	// the snapshot writes (including log rotations) it performed.
	Replayed  int
	Added     int
	Snapshots int
}

func (s *Stats) String() string {
	out := fmt.Sprintf(
		"algo=%s target=%s minsup=%d parallel=%v db=%d/%d trans %d/%d items %s prep=%s mine=%s",
		s.Algorithm, s.Target, s.MinSupport, s.Parallel,
		s.PreppedTransactions, s.Transactions, s.PreppedItems, s.Items,
		obs.FormatCounts(s.Counts),
		s.PrepTime.Round(time.Microsecond), s.MineTime.Round(time.Microsecond))
	if s.Replayed != 0 || s.Added != 0 || s.Snapshots != 0 {
		out += fmt.Sprintf(" replayed=%d added=%d snapshots=%d", s.Replayed, s.Added, s.Snapshots)
	}
	return out
}
