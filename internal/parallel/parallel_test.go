package parallel

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/gendata"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/result"
	"repro/internal/txdb"
)

func randDB(rng *rand.Rand, items, n int, density float64) *txdb.DB {
	b := txdb.NewBuilder(n, 0)
	b.SetNumItems(items)
	for k := 0; k < n; k++ {
		var raw []int
		for i := 0; i < items; i++ {
			if rng.Float64() < density {
				raw = append(raw, i)
			}
		}
		b.AddInts(raw...)
	}
	return b.Build()
}

func seqIsTa(t *testing.T, db txdb.Source, minsup int) *result.Set {
	t.Helper()
	var out result.Set
	if err := engine.Run(db, "ista", engine.Spec{MinSupport: minsup}, out.Collect()); err != nil {
		t.Fatal(err)
	}
	return &out
}

func parIsTa(t *testing.T, db txdb.Source, minsup, workers int) *result.Set {
	t.Helper()
	var out result.Set
	if err := engine.Run(db, "ista", engine.Spec{MinSupport: minsup, Workers: workers}, out.Collect()); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestIsTaMatchesSequentialRandom cross-checks the sharded miner against
// the sequential one over many random shapes, worker counts, and support
// levels.
func TestIsTaMatchesSequentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		items := 3 + rng.Intn(10)
		n := 1 + rng.Intn(40)
		db := randDB(rng, items, n, 0.15+rng.Float64()*0.5)
		minsup := 1 + rng.Intn(5)
		workers := 2 + rng.Intn(6)

		want := seqIsTa(t, db, minsup)
		got := parIsTa(t, db, minsup, workers)
		if !got.Equal(want) {
			t.Fatalf("trial %d (items=%d n=%d minsup=%d workers=%d):\n%s",
				trial, items, n, minsup, workers, got.Diff(want, 10))
		}
	}
}

// TestIsTaMatchesSequentialGendata cross-checks on the paper-shaped
// workloads, including the gene-expression shape in both orientations.
func TestIsTaMatchesSequentialGendata(t *testing.T) {
	exprM := gendata.Expression(gendata.ExpressionConfig{Genes: 120, Conditions: 24, Modules: 5, Seed: 9})
	cases := []struct {
		name   string
		db     *txdb.DB
		minsup int
	}{
		// NCBI60/Thrombin-shaped data (few, very dense transactions) is
		// deliberately absent: shards must mine at minimum support 1 with
		// pruning off, which explodes on dense rows — that regime belongs
		// to the Carpenter engine (see TestCarpenterTableGendata).
		{"yeast", gendata.Yeast(0.03, 1), 4},
		{"webview", gendata.WebView(0.04, 3), 6},
		{"quest", gendata.Quest(gendata.QuestConfig{Transactions: 600, Items: 40, AvgLen: 8, Patterns: 12, AvgPatternLen: 4, Seed: 4}), 12},
		{"expr-conditions", gendata.Discretize(exprM, 0.2, 0.2, gendata.ConditionsAsTransactions), 5},
		{"expr-genes", gendata.Discretize(exprM, 0.2, 0.2, gendata.GenesAsTransactions), 10},
	}
	for _, c := range cases {
		want := seqIsTa(t, c.db, c.minsup)
		for _, workers := range []int{2, 4, 8} {
			got := parIsTa(t, c.db, c.minsup, workers)
			if !got.Equal(want) {
				t.Fatalf("%s at %d workers:\n%s", c.name, workers, got.Diff(want, 10))
			}
		}
	}
}

// TestCarpenterTableMatchesSequential cross-checks the branch-parallel
// Carpenter search against the sequential table variant.
func TestCarpenterTableMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		items := 3 + rng.Intn(10)
		n := 1 + rng.Intn(24)
		db := randDB(rng, items, n, 0.2+rng.Float64()*0.5)
		minsup := 1 + rng.Intn(4)
		workers := 2 + rng.Intn(6)

		var want result.Set
		if err := engine.Run(db, "carpenter-table", engine.Spec{MinSupport: minsup}, want.Collect()); err != nil {
			t.Fatal(err)
		}
		var got result.Set
		if err := engine.Run(db, "carpenter-table", engine.Spec{MinSupport: minsup, Workers: workers}, got.Collect()); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(&want) {
			t.Fatalf("trial %d (items=%d n=%d minsup=%d workers=%d):\n%s",
				trial, items, n, minsup, workers, got.Diff(&want, 10))
		}
	}
}

// TestCarpenterTableGendata runs the dense few-transaction shapes
// Carpenter targets.
func TestCarpenterTableGendata(t *testing.T) {
	cases := []struct {
		name   string
		db     *txdb.DB
		minsup int
	}{
		{"ncbi60", gendata.NCBI60(0.25, 5), 48},
		{"thrombin", gendata.Thrombin(0.008, 6), 56},
	}
	for _, c := range cases {
		var want result.Set
		if err := engine.Run(c.db, "carpenter-table", engine.Spec{MinSupport: c.minsup}, want.Collect()); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			var got result.Set
			if err := engine.Run(c.db, "carpenter-table", engine.Spec{MinSupport: c.minsup, Workers: workers}, got.Collect()); err != nil {
				t.Fatal(err)
			}
			if !got.Equal(&want) {
				t.Fatalf("%s at %d workers:\n%s", c.name, workers, got.Diff(&want, 10))
			}
		}
	}
}

// TestDeterministicEmissionOrder: two runs with the same options must
// produce byte-identical pattern streams (not just equal sets), for both
// engines — the determinism guarantee documented in the README.
func TestDeterministicEmissionOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	db := randDB(rng, 14, 60, 0.35)
	for _, workers := range []int{2, 5} {
		run := func(name string) []result.Pattern {
			var seq []result.Pattern
			err := engine.Run(db, name, engine.Spec{MinSupport: 3, Workers: workers}, result.ReporterFunc(
				func(items itemset.Set, supp int) {
					seq = append(seq, result.Pattern{Items: items.Clone(), Support: supp})
				}))
			if err != nil {
				t.Fatal(err)
			}
			return seq
		}
		for _, name := range []string{"ista", "carpenter-table"} {
			a, b := run(name), run(name)
			if len(a) != len(b) {
				t.Fatalf("%s: runs emitted %d vs %d patterns", name, len(a), len(b))
			}
			for i := range a {
				if a[i].Support != b[i].Support || !a[i].Items.Equal(b[i].Items) {
					t.Fatalf("%s: emission order differs at %d: %v vs %v", name, i, a[i], b[i])
				}
			}
		}
	}
}

// TestParallelCancellation: a pre-closed done channel must surface
// ErrCanceled promptly from both engines at any worker count.
func TestParallelCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	db := randDB(rng, 20, 200, 0.3)
	done := make(chan struct{})
	close(done)
	for _, workers := range []int{1, 2, 8} {
		if err := engine.Run(db, "ista", engine.Spec{MinSupport: 2, Workers: workers, Done: done}, &result.Counter{}); err != mining.ErrCanceled {
			t.Fatalf("ista %d workers: err = %v, want ErrCanceled", workers, err)
		}
		if err := engine.Run(db, "carpenter-table", engine.Spec{MinSupport: 2, Workers: workers, Done: done}, &result.Counter{}); err != mining.ErrCanceled {
			t.Fatalf("carpenter %d workers: err = %v, want ErrCanceled", workers, err)
		}
	}
}

// TestWorkerCountEdgeCases: more workers than transactions, single
// transactions, and empty databases must all behave.
func TestWorkerCountEdgeCases(t *testing.T) {
	empty := txdb.FromInts()
	if err := engine.Run(empty, "ista", engine.Spec{MinSupport: 1, Workers: 8}, &result.Counter{}); err != nil {
		t.Fatal(err)
	}
	if err := engine.Run(empty, "carpenter-table", engine.Spec{MinSupport: 1, Workers: 8}, &result.Counter{}); err != nil {
		t.Fatal(err)
	}

	one := txdb.FromInts([]int{1, 3, 5})
	want := seqIsTa(t, one, 1)
	got := parIsTa(t, one, 1, 16)
	if !got.Equal(want) {
		t.Fatalf("single transaction, 16 workers:\n%s", got.Diff(want, 10))
	}

	rng := rand.New(rand.NewSource(19))
	db := randDB(rng, 8, 5, 0.5)
	want = seqIsTa(t, db, 2)
	got = parIsTa(t, db, 2, 32)
	if !got.Equal(want) {
		t.Fatalf("5 transactions, 32 workers:\n%s", got.Diff(want, 10))
	}
}

// TestResultsVerifySemantics double-checks the parallel output against the
// database-level closedness and support definitions, independent of the
// sequential miner.
func TestResultsVerifySemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	db := randDB(rng, 12, 50, 0.4)
	var out result.Set
	if err := engine.Run(db, "ista", engine.Spec{MinSupport: 3, Workers: 4}, out.Collect()); err != nil {
		t.Fatal(err)
	}
	if err := result.Verify(db, &out, 3); err != nil {
		t.Fatal(err)
	}
}
