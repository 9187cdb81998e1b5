// Package parallel implements multi-worker versions of the two
// intersection miners, with a deterministic merge: for any fixed input and
// options the reported pattern set is identical to the sequential miner's
// (the test suite cross-checks this), regardless of scheduling and worker
// count.
//
// Parallel IsTa shards the prepared transaction list across workers, each
// of which runs the cumulative intersection scheme (§3.2 of the paper,
// core.Intersect) on its shard with a private prefix tree. The shard
// results are merged by replaying every shard's closed sets as
// support-weighted transactions through the same loop into a merge tree:
// the closed sets of the full database are intersections of per-shard
// closed sets, so the merge tree's nodes form a complete closure-candidate
// family. Candidate supports are then recomputed exactly against the
// prepared database and the non-closed candidates are removed with the
// same-support subsumption filter of internal/result. See DESIGN.md
// ("Parallel mining") for why this reconstruction is exact.
//
// Parallel Carpenter-table fans the top-level transaction-set branches of
// §3.1.2 out to a bounded worker pool with per-worker repositories
// (carpenter.TableBrancher) and merges the per-worker reports with a
// keep-the-maximum pass (result.MaxMerger).
//
// Both engines run their worker phases through one supervised fan-out
// (fanOut).
package parallel

import "repro/internal/guard"

// firstError folds a per-worker error slice into the error the engine
// returns: a contained worker panic (*guard.PanicError) takes precedence
// over cooperative stops (cancellation, budget), then first worker order
// breaks ties deterministically.
func firstError(errs []error) error {
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if _, ok := err.(*guard.PanicError); ok {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}
