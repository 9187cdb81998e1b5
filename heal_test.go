package fim

import (
	"errors"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// healDB is a workload large enough that every parallel shard grows a
// prefix tree well past the injected fault thresholds below.
func healDB() *Database {
	return GenQuest(QuestConfig{
		Transactions: 500, Items: 40, AvgLen: 8, Patterns: 12, AvgPatternLen: 4, Seed: 31,
	})
}

// TestHealShardFallback is the self-healing acceptance check: a shard
// worker panics once (a consume-once tree fault), the supervisor re-mines
// the shard sequentially, and the run completes with the exact sequential
// result — no error, no partial, just a nonzero retry counter.
func TestHealShardFallback(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	db := healDB()
	const minsup = 10

	ref, err := MineClosed(db, minsup)
	if err != nil {
		t.Fatal(err)
	}

	for _, algo := range []Algorithm{IsTa, CarpenterTable} {
		t.Run(string(algo), func(t *testing.T) {
			defer faultinject.LeakCheck(t)()
			restore := faultinject.PanicAtTreeNodeOnce(40)
			defer restore()

			var st MiningStats
			var out ResultSet
			err := Mine(db, Options{
				MinSupport:  minsup,
				Algorithm:   algo,
				Parallelism: 4,
				Retry:       RetryPolicy{MaxAttempts: 2},
				Stats:       &st,
			}, out.Collect())
			if err != nil {
				t.Fatalf("healed run failed: %v", err)
			}
			out.Sort()
			if !out.Equal(ref) {
				t.Fatalf("healed result differs from sequential:\n%s", out.Diff(ref, 10))
			}
			if algo == IsTa {
				// Only IsTa's shard workers grow core prefix trees, so only
				// there is the fault guaranteed to have fired and healed.
				if st.Retries < 1 {
					t.Fatalf("Stats.Retries = %d, want >= 1", st.Retries)
				}
			}
			if st.Degraded != 0 {
				t.Fatalf("Stats.Degraded = %d, want 0 (the run healed)", st.Degraded)
			}
		})
	}
}

// TestHealExhaustedPartial drives retry exhaustion: a persistent fault
// fails every shard on every attempt, so the run degrades all the way to
// a typed partial result with a per-shard report and consistent
// degradation counters — never a panic or a silent empty success.
func TestHealExhaustedPartial(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	db := healDB()
	const minsup, workers = 10, 4

	t.Run("ista-tree-panic", func(t *testing.T) {
		defer faultinject.LeakCheck(t)()
		restore := faultinject.PanicAtTreeNode(2) // persistent: retries refail
		defer restore()

		var st MiningStats
		var out ResultSet
		err := Mine(db, Options{
			MinSupport:  minsup,
			Parallelism: workers,
			Retry:       RetryPolicy{MaxAttempts: 2},
			Stats:       &st,
		}, out.Collect())
		assertAllShardsDegraded(t, err, &st, workers)
		if out.Len() != 0 {
			t.Fatalf("all shards degraded but %d patterns reported", out.Len())
		}
	})

	t.Run("carpenter-transient-err", func(t *testing.T) {
		defer faultinject.LeakCheck(t)()
		// From tick 400 on every cooperative check fails with a transient
		// error: late enough that prep and the engine's entry tick pass,
		// early enough that every branch worker (and every retry) hits it.
		restore := faultinject.TransientErrAtTick(400)
		defer restore()

		var st MiningStats
		var out ResultSet
		err := Mine(db, Options{
			MinSupport:  minsup,
			Algorithm:   CarpenterTable,
			Parallelism: workers,
			Retry:       RetryPolicy{MaxAttempts: 2},
			Stats:       &st,
		}, out.Collect())
		if errors.Is(err, faultinject.ErrChaos) && !errors.Is(err, ErrPartial) {
			// The injected failure may fire before the workers start (the
			// engine's own entry tick); then the run aborts fail-stop,
			// which is the documented non-degradable outcome.
			return
		}
		assertAllShardsDegraded(t, err, &st, workers)
	})
}

// assertAllShardsDegraded checks the typed shape of a fully degraded run:
// a *PartialError wrapping ErrPartial, one ShardError per worker, and a
// Degraded counter that agrees.
func assertAllShardsDegraded(t *testing.T, err error, st *MiningStats, workers int) {
	t.Helper()
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartialError", err)
	}
	if !errors.Is(err, ErrPartial) {
		t.Fatalf("err = %v does not wrap ErrPartial", err)
	}
	if len(pe.Shards) != workers {
		t.Fatalf("PartialError reports %d shards, want %d", len(pe.Shards), workers)
	}
	for _, se := range pe.Shards {
		if se.Err == nil {
			t.Fatalf("shard %d degraded without a cause", se.Shard)
		}
	}
	if st.Degraded != int64(workers) {
		t.Fatalf("Stats.Degraded = %d, want %d", st.Degraded, workers)
	}
	if st.Retries < int64(workers) {
		t.Fatalf("Stats.Retries = %d, want >= %d (every shard retried)", st.Retries, workers)
	}
}

// TestHealPartialSoundness pins the degraded-result contract: with some
// shards abandoned, every reported pattern is closed in the full database
// (it appears in the sequential result) and its reported support is a
// valid lower bound of the true support, at or above minsup.
func TestHealPartialSoundness(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	db := healDB()
	const minsup = 10

	ref, err := MineClosed(db, minsup)
	if err != nil {
		t.Fatal(err)
	}

	// A one-shot tree panic with a disabled-in-practice budget (one
	// attempt, but the fault refires on the retry because PanicAtTreeNode
	// is persistent) degrades exactly the shards that hit it.
	restore := faultinject.PanicAtTreeNode(40)
	defer restore()

	var out ResultSet
	errMine := Mine(db, Options{
		MinSupport:  minsup,
		Parallelism: 4,
		Retry:       RetryPolicy{MaxAttempts: 1},
		Stats:       nil,
	}, out.Collect())
	var pe *PartialError
	if !errors.As(errMine, &pe) {
		t.Skipf("run did not degrade (err = %v); fault landed outside the shard phase", errMine)
	}
	out.Sort()
	refm := make(map[string]int, ref.Len())
	for _, p := range ref.Patterns {
		refm[p.Items.Key()] = p.Support
	}
	for _, p := range out.Patterns {
		true_, ok := refm[p.Items.Key()]
		if !ok {
			t.Errorf("degraded result contains %v, not closed-frequent in the full database", p)
			continue
		}
		if p.Support > true_ {
			t.Errorf("degraded result overstates support of %v: %d > true %d", p.Items, p.Support, true_)
		}
		if p.Support < minsup {
			t.Errorf("degraded result reports %v below minsup: %d < %d", p.Items, p.Support, minsup)
		}
	}
}

// TestHealProgressAudit is the counter audit for healed runs (run under
// -race in CI): a retried shard must not corrupt the observability
// contract — snapshots stay monotone, the final snapshot agrees exactly
// with Stats, and the pattern count matches the reference (retried
// shards never double-report patterns).
func TestHealProgressAudit(t *testing.T) {
	defer faultinject.LeakCheck(t)()
	db := healDB()
	const minsup = 10

	ref, err := MineClosed(db, minsup)
	if err != nil {
		t.Fatal(err)
	}

	restore := faultinject.PanicAtTreeNodeOnce(40)
	defer restore()

	var log progressLog
	var st MiningStats
	var out ResultSet
	err = Mine(db, Options{
		MinSupport:       minsup,
		Parallelism:      4,
		Retry:            RetryPolicy{MaxAttempts: 2},
		Stats:            &st,
		OnProgress:       log.add,
		ProgressInterval: time.Nanosecond,
	}, out.Collect())
	if err != nil {
		t.Fatalf("healed run failed: %v", err)
	}
	out.Sort()
	if !out.Equal(ref) {
		t.Fatalf("healed result differs from sequential:\n%s", out.Diff(ref, 10))
	}
	if st.Retries < 1 {
		t.Fatalf("Stats.Retries = %d, want >= 1 (the fault must have fired)", st.Retries)
	}
	if st.Patterns != int64(ref.Len()) {
		t.Fatalf("Stats.Patterns = %d, want %d (retried shard must not double-count)", st.Patterns, ref.Len())
	}
	events := log.snapshot()
	checkMonotone(t, events)
	if final := events[len(events)-1]; final.Counts != st.Counts {
		t.Fatalf("final snapshot %+v disagrees with stats %+v", final.Counts, st.Counts)
	}
}
