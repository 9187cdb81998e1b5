// Registry-driven conformance suite: every registered miner is checked
// against the brute-force oracles of internal/naive on randomized small
// databases, once per target it declares, plus its parallel engine where
// one is registered. This replaces the per-package oracle cross-checks
// the algorithm packages used to copy from each other — a newly
// registered algorithm is covered automatically.
package fim

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/naive"
	"repro/internal/result"
	"repro/internal/txdb"
)

// conformanceDB builds a small random database within the oracle limits.
func conformanceDB(rng *rand.Rand) *Database {
	items := 2 + rng.Intn(9)
	n := 1 + rng.Intn(13)
	density := 0.1 + rng.Float64()*0.6
	rows := make([][]int, n)
	for k := range rows {
		for i := 0; i < items; i++ {
			if rng.Float64() < density {
				rows[k] = append(rows[k], i)
			}
		}
	}
	return NewDatabase(rows)
}

// oracle computes the expected pattern set for a target with the naive
// brute-force enumerations (transaction subsets for closed, item subsets
// for all, closed + subset filtering for maximal).
func oracle(t *testing.T, db *Database, target Target, minsup int) *ResultSet {
	t.Helper()
	switch target {
	case TargetClosed:
		want, err := naive.ClosedByTransactionSubsets(db, minsup)
		if err != nil {
			t.Fatal(err)
		}
		return want
	case TargetAll:
		want, err := naive.FrequentByItemSubsets(db, minsup)
		if err != nil {
			t.Fatal(err)
		}
		return want
	case TargetMaximal:
		closed, err := naive.ClosedByTransactionSubsets(db, minsup)
		if err != nil {
			t.Fatal(err)
		}
		return result.FilterMaximal(closed)
	}
	t.Fatalf("oracle: unknown target %v", target)
	return nil
}

// TestConformance runs every registered miner against the oracles, once
// per declared target, on randomized databases.
func TestConformance(t *testing.T) {
	for _, info := range AlgorithmInfos() {
		info := info
		t.Run(string(info.Name), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(info.Name)) * 7919))
			trials := 60
			if testing.Short() {
				trials = 15
			}
			for trial := 0; trial < trials; trial++ {
				db := conformanceDB(rng)
				minsup := []int{1, 2, 3, db.NumTx()/2 + 1}[trial%4]
				for _, target := range info.Targets {
					want := oracle(t, db, target, minsup)
					var got ResultSet
					err := Mine(db, Options{MinSupport: minsup, Algorithm: info.Name, Target: target}, got.Collect())
					if err != nil {
						t.Fatalf("%s/%s: %v", info.Name, target, err)
					}
					got.Sort()
					if !got.Equal(want) {
						t.Fatalf("%s/%s mismatch (minsup=%d db=%v):\n%s",
							info.Name, target, minsup, db, got.Diff(want, 10))
					}
				}
			}
		})
	}
}

// TestConformanceParallel runs the parallel engines against the closed
// oracle: the pattern set must match the sequential result exactly.
func TestConformanceParallel(t *testing.T) {
	for _, info := range AlgorithmInfos() {
		if !info.Parallel {
			continue
		}
		info := info
		t.Run(string(info.Name), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(info.Name)) * 6151))
			trials := 30
			if testing.Short() {
				trials = 8
			}
			for trial := 0; trial < trials; trial++ {
				db := conformanceDB(rng)
				minsup := 1 + trial%3
				want := oracle(t, db, TargetClosed, minsup)
				for _, workers := range []int{-1, 2, 4} {
					var got ResultSet
					err := Mine(db, Options{MinSupport: minsup, Algorithm: info.Name, Parallelism: workers}, got.Collect())
					if err != nil {
						t.Fatalf("%s (workers=%d): %v", info.Name, workers, err)
					}
					got.Sort()
					if !got.Equal(want) {
						t.Fatalf("%s (workers=%d) mismatch (minsup=%d db=%v):\n%s",
							info.Name, workers, minsup, db, got.Diff(want, 10))
					}
				}
			}
		})
	}
}

// TestRegistryNames: registration names are unique, non-empty, and match
// the public Algorithms() listing exactly.
func TestRegistryNames(t *testing.T) {
	infos := AlgorithmInfos()
	if len(infos) == 0 {
		t.Fatal("no registered algorithms")
	}
	seen := map[Algorithm]bool{}
	for _, info := range infos {
		if info.Name == "" {
			t.Fatal("registered algorithm with empty name")
		}
		if seen[info.Name] {
			t.Fatalf("duplicate registration %q", info.Name)
		}
		seen[info.Name] = true
		if len(info.Targets) == 0 {
			t.Fatalf("%s declares no targets", info.Name)
		}
	}
	algos := Algorithms()
	if len(algos) != len(infos) {
		t.Fatalf("Algorithms() has %d entries, registry %d", len(algos), len(infos))
	}
	for i, a := range algos {
		if a != infos[i].Name {
			t.Fatalf("Algorithms()[%d] = %q, registry order %q", i, a, infos[i].Name)
		}
	}
	// The paper's contribution leads the presentation order.
	if algos[0] != IsTa {
		t.Fatalf("presentation order starts with %q, want %q", algos[0], IsTa)
	}
}

// TestMinSupportClampConformance: every miner must treat MinSupport < 1
// as 1 — identically, through the engine's central clamp.
func TestMinSupportClampConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db := conformanceDB(rng)
	for _, info := range AlgorithmInfos() {
		for _, target := range info.Targets {
			var want ResultSet
			if err := Mine(db, Options{MinSupport: 1, Algorithm: info.Name, Target: target}, want.Collect()); err != nil {
				t.Fatal(err)
			}
			want.Sort()
			for _, ms := range []int{0, -5} {
				var got ResultSet
				if err := Mine(db, Options{MinSupport: ms, Algorithm: info.Name, Target: target}, got.Collect()); err != nil {
					t.Fatal(err)
				}
				got.Sort()
				if !got.Equal(&want) {
					t.Fatalf("%s/%s: MinSupport=%d differs from MinSupport=1", info.Name, target, ms)
				}
			}
		}
	}
}

// TestUnsupportedTargetRejected: asking a miner for a target it did not
// declare fails fast with ErrUnsupportedTarget, before any mining.
func TestUnsupportedTargetRejected(t *testing.T) {
	db := paperExample()
	targets := []Target{TargetClosed, TargetAll, TargetMaximal}
	for _, info := range AlgorithmInfos() {
		declared := map[Target]bool{}
		for _, target := range info.Targets {
			declared[target] = true
		}
		for _, target := range targets {
			if declared[target] {
				continue
			}
			reported := 0
			err := Mine(db, Options{MinSupport: 1, Algorithm: info.Name, Target: target},
				ReporterFunc(func(ItemSet, int) { reported++ }))
			if !errors.Is(err, ErrUnsupportedTarget) {
				t.Errorf("%s/%s: err = %v, want ErrUnsupportedTarget", info.Name, target, err)
			}
			if reported != 0 {
				t.Errorf("%s/%s: %d patterns reported despite unsupported target", info.Name, target, reported)
			}
		}
	}
}

// TestUnknownAlgorithmListsNames: the unknown-algorithm error names the
// available miners, so command-line typos are self-diagnosing.
func TestUnknownAlgorithmListsNames(t *testing.T) {
	err := Mine(paperExample(), Options{MinSupport: 1, Algorithm: "no-such-miner"},
		ReporterFunc(func(ItemSet, int) {}))
	if !errors.Is(err, ErrUnknownAlgorithm) {
		t.Fatalf("err = %v, want ErrUnknownAlgorithm", err)
	}
	for _, a := range Algorithms() {
		if !contains(err.Error(), string(a)) {
			t.Errorf("error %q does not mention %q", err, a)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestStatsPopulated: a Stats-carrying run fills the observability fields
// consistently with the reported result, and every miner counts work
// (Cobbler's included, whose row blocks run nested Carpenter searches).
// A second pass runs every miner with a parallel engine at two workers:
// the workers' private controls must reach the run's counters too.
func TestStatsPopulated(t *testing.T) {
	db := paperExample()
	for _, workers := range []int{0, 2} {
		for _, info := range AlgorithmInfos() {
			if workers > 0 && !info.Parallel {
				continue
			}
			var stats MiningStats
			var got ResultSet
			err := Mine(db, Options{MinSupport: 2, Algorithm: info.Name, Parallelism: workers, Stats: &stats}, got.Collect())
			if err != nil {
				t.Fatalf("%s -p %d: %v", info.Name, workers, err)
			}
			if stats.Algorithm != string(info.Name) {
				t.Errorf("%s -p %d: stats.Algorithm = %q", info.Name, workers, stats.Algorithm)
			}
			if stats.MinSupport != 2 || stats.Target != TargetClosed {
				t.Errorf("%s -p %d: stats spec echo wrong: %+v", info.Name, workers, stats)
			}
			if stats.Patterns != int64(got.Len()) {
				t.Errorf("%s -p %d: stats.Patterns = %d, reported %d", info.Name, workers, stats.Patterns, got.Len())
			}
			if stats.Transactions != db.NumTx() || stats.Items != db.NumItems() {
				t.Errorf("%s -p %d: db shape not echoed: %+v", info.Name, workers, stats)
			}
			if stats.PreppedTransactions > stats.Transactions || stats.PreppedItems > stats.Items {
				t.Errorf("%s -p %d: prep cannot grow the database: %+v", info.Name, workers, stats)
			}
			if stats.Ops <= 0 {
				t.Errorf("%s -p %d: stats.Ops = %d, every miner counts its work", info.Name, workers, stats.Ops)
			}
			if stats.String() == "" {
				t.Errorf("%s -p %d: empty stats string", info.Name, workers)
			}
		}
	}
}

// TestDensityConformance: the adaptive tid-set representations must never
// change what is mined. The sweep pins three regimes — sparse (kernel
// stays on sorted lists), half-full (bitmap promotion and demotion both
// trigger), near-full (bitmaps and diffsets dominate) — on databases
// large enough to cross the kernel's dense-universe threshold. For every
// registered algorithm and target the pattern set must agree byte-for-
// byte with the first registered miner's (an intersection miner that does
// not use the kernels), and mining the duplicate-merged weighted database
// must reproduce the expanded result exactly, so representation switching
// is invisible in both uniform and weighted support semantics.
func TestDensityConformance(t *testing.T) {
	// Two database scales: the small one keeps the row-enumeration miners
	// (Carpenter variants, flat) tractable so the whole registry is
	// pinned; the large one crosses the kernel's dense-universe threshold
	// (bitmap promotion needs ≥256 rows) and runs the miners that scale,
	// skipping the ones exponential in the row count.
	configs := []struct {
		n, items int
		skip     map[Algorithm]bool
	}{
		{96, 14, nil},
		{400, 16, map[Algorithm]bool{"carpenter-table": true, "carpenter-lists": true, "flat": true}},
	}
	rng := rand.New(rand.NewSource(53))
	for _, cfg := range configs {
		n, items := cfg.n, cfg.items
		for _, density := range []float64{0.05, 0.5, 0.95} {
			rows := make([][]int, n)
			for k := range rows {
				for i := 0; i < items; i++ {
					if rng.Float64() < density {
						rows[k] = append(rows[k], i)
					}
				}
			}
			expanded := NewDatabase(rows)
			merged := txdb.MergeDuplicates(txdb.FromSource(expanded))
			// Keep outputs non-trivial but bounded in every regime.
			minsup := map[float64]int{0.05: 2, 0.5: n / 5, 0.95: 3 * n / 4}[density]

			want := map[Target]*ResultSet{}
			for _, info := range AlgorithmInfos() {
				if cfg.skip[info.Name] {
					continue
				}
				for _, target := range info.Targets {
					var got, gotMerged ResultSet
					if err := Mine(expanded, Options{MinSupport: minsup, Algorithm: info.Name, Target: target}, got.Collect()); err != nil {
						t.Fatalf("n=%d density %v %s/%s: %v", n, density, info.Name, target, err)
					}
					if err := Mine(merged, Options{MinSupport: minsup, Algorithm: info.Name, Target: target}, gotMerged.Collect()); err != nil {
						t.Fatalf("n=%d density %v %s/%s merged: %v", n, density, info.Name, target, err)
					}
					got.Sort()
					gotMerged.Sort()
					if !gotMerged.Equal(&got) {
						t.Fatalf("n=%d density %v %s/%s: weighted run differs from expanded:\n%s",
							n, density, info.Name, target, gotMerged.Diff(&got, 10))
					}
					if ref, ok := want[target]; !ok {
						want[target] = &got
					} else if !got.Equal(ref) {
						t.Fatalf("n=%d density %v %s/%s: differs from reference miner:\n%s",
							n, density, info.Name, target, got.Diff(ref, 10))
					}
				}
			}
		}
	}
}

// TestWeightedConformance: merging duplicate rows into weighted rows must
// not change any miner's output. Every registered algorithm runs on a
// duplicate-heavy database twice — expanded (uniform weights) and merged
// (weights > 1) — and the pattern sets must be identical per target. This
// pins the weighted support semantics of the columnar store across the
// whole registry.
func TestWeightedConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	trials := 20
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		// A tiny universe forces duplicate rows.
		items := 2 + rng.Intn(4)
		n := 4 + rng.Intn(16)
		rows := make([][]int, n)
		for k := range rows {
			for i := 0; i < items; i++ {
				if rng.Float64() < 0.5 {
					rows[k] = append(rows[k], i)
				}
			}
		}
		expanded := NewDatabase(rows)
		merged := txdb.MergeDuplicates(txdb.FromSource(expanded))
		if merged.NumTx() == expanded.NumTx() {
			continue // no duplicates materialized this trial
		}
		if merged.TotalWeight() != len(rows) {
			t.Fatalf("trial %d: merged weight %d, want %d", trial, merged.TotalWeight(), len(rows))
		}
		minsup := 1 + trial%3
		for _, info := range AlgorithmInfos() {
			for _, target := range info.Targets {
				var want, got ResultSet
				if err := Mine(expanded, Options{MinSupport: minsup, Algorithm: info.Name, Target: target}, want.Collect()); err != nil {
					t.Fatalf("%s/%s expanded: %v", info.Name, target, err)
				}
				if err := Mine(merged, Options{MinSupport: minsup, Algorithm: info.Name, Target: target}, got.Collect()); err != nil {
					t.Fatalf("%s/%s merged: %v", info.Name, target, err)
				}
				want.Sort()
				got.Sort()
				if !got.Equal(&want) {
					t.Fatalf("%s/%s: merged DB mines differently (minsup=%d rows=%v):\n%s",
						info.Name, target, minsup, rows, got.Diff(&want, 10))
				}
			}
		}
	}
}
