// Benchmarks regenerating the paper's evaluation artifacts, one per table
// and figure plus the §3/§5 ablations. Each figure benchmark runs every
// algorithm of the corresponding plot at a representative support level of
// the sweep (the full sweeps are produced by `go run ./cmd/fimbench`).
// Absolute times differ from the paper (different hardware, Go instead of
// C, scaled-down synthetic workloads); the relative ordering is what these
// benchmarks are for — see EXPERIMENTS.md.
package fim

import (
	"sync"
	"testing"

	"repro/internal/carpenter"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gendata"
	"repro/internal/itemset"
	"repro/internal/naive"
	"repro/internal/prep"
	"repro/internal/result"
)

// Workloads are generated once and shared across benchmarks.
var (
	onceWorkloads sync.Once
	yeastDB       *Database // Figure 5
	ncbiDB        *Database // Figure 6
	thrombinDB    *Database // Figure 7
	webviewDB     *Database // Figure 8
)

// variantOf returns an unregistered copy of the named registration, the
// way the bench harness builds its ablations.
func variantOf(b *testing.B, name string) engine.Registration {
	reg, ok := engine.Lookup(name)
	if !ok {
		b.Fatalf("%s is not registered", name)
	}
	return *reg
}

// runVariant runs the base registration b.N times, with Mine replaced
// when mine is non-nil.
func runVariant(b *testing.B, base string, mine engine.MineFunc, db *Database, minsup int) {
	v := variantOf(b, base)
	if mine != nil {
		v.Mine = mine
	}
	for i := 0; i < b.N; i++ {
		var counter result.Counter
		if err := v.Run(db, engine.Spec{MinSupport: minsup}, &counter); err != nil {
			b.Fatal(err)
		}
	}
}

func workloads() {
	onceWorkloads.Do(func() {
		yeastDB = gendata.Yeast(0.15, 1)
		ncbiDB = gendata.NCBI60(0.20, 2)
		thrombinDB = gendata.Thrombin(0.02, 3)
		webviewDB = gendata.WebView(0.30, 4)
	})
}

// benchAlgos are the algorithms shown in Figures 5-8.
var benchAlgos = []Algorithm{IsTa, CarpenterTable, CarpenterLists, FPClose, LCM}

func benchFigure(b *testing.B, db *Database, minsup int) {
	for _, algo := range benchAlgos {
		b.Run(string(algo), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var counter result.Counter
				if err := Mine(db, Options{MinSupport: minsup, Algorithm: algo}, &counter); err != nil {
					b.Fatal(err)
				}
				if counter.N == 0 {
					b.Fatal("benchmark level produced no patterns")
				}
			}
		})
	}
}

// BenchmarkFig5Yeast measures the Figure 5 algorithms on the yeast-like
// workload at a mid-sweep support level.
func BenchmarkFig5Yeast(b *testing.B) {
	workloads()
	benchFigure(b, yeastDB, 14)
}

// BenchmarkFig6NCBI60 measures the Figure 6 algorithms on the NCBI60-like
// workload.
func BenchmarkFig6NCBI60(b *testing.B) {
	workloads()
	benchFigure(b, ncbiDB, 49)
}

// BenchmarkFig7Thrombin measures the Figure 7 algorithms on the
// thrombin-like workload.
func BenchmarkFig7Thrombin(b *testing.B) {
	workloads()
	benchFigure(b, thrombinDB, 36)
}

// BenchmarkFig8WebView measures the Figure 8 algorithms on the transposed
// webview-like workload.
func BenchmarkFig8WebView(b *testing.B) {
	workloads()
	benchFigure(b, webviewDB, 10)
}

// BenchmarkFlatVsIsTa is the §5 comparison against Mielikäinen's flat
// cumulative scheme — the >100x gap is the prefix tree's contribution.
func BenchmarkFlatVsIsTa(b *testing.B) {
	db := gendata.Yeast(0.05, 5)
	for _, algo := range []Algorithm{IsTa, FlatCumulative} {
		b.Run(string(algo), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var counter result.Counter
				if err := Mine(db, Options{MinSupport: 10, Algorithm: algo}, &counter); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOrderAblation measures IsTa under the §3.4 item/transaction
// order choices: ascending-frequency codes with ascending-size
// transactions (the paper's recommendation) versus the reverse choices.
func BenchmarkOrderAblation(b *testing.B) {
	workloads()
	cases := []struct {
		name string
		io   prep.ItemOrder
		to   prep.TransOrder
	}{
		{"asc-freq/size-asc", prep.OrderAscFreq, prep.OrderSizeAsc},
		{"asc-freq/size-desc", prep.OrderAscFreq, prep.OrderSizeDesc},
		{"desc-freq/size-asc", prep.OrderDescFreq, prep.OrderSizeAsc},
		{"keep/original", prep.OrderKeep, prep.OrderOriginal},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			v := variantOf(b, "ista")
			v.Prep = prep.Config{Items: tc.io, Trans: tc.to}
			for i := 0; i < b.N; i++ {
				var counter result.Counter
				if err := v.Run(yeastDB, engine.Spec{MinSupport: 14}, &counter); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPruneAblation measures the §3.2 item-elimination pruning of
// IsTa and the §3.1.1 item elimination of Carpenter, on and off.
func BenchmarkPruneAblation(b *testing.B) {
	workloads()
	cases := []struct {
		name, base string
		mine       engine.MineFunc // nil: the registration's own
	}{
		{"ista/prune", "ista", nil},
		{"ista/noprune", "ista", core.MineNoPrune},
		{"carpenter/elim", "carpenter-table", nil},
		{"carpenter/noelim", "carpenter-table", carpenter.MineTableNoElim},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			runVariant(b, tc.base, tc.mine, yeastDB, 14)
		})
	}
}

// BenchmarkRepoAblation compares the Carpenter repository layouts of
// §3.1.1: prefix tree with flat top level versus a hash table.
func BenchmarkRepoAblation(b *testing.B) {
	workloads()
	b.Run("prefix-tree", func(b *testing.B) {
		runVariant(b, "carpenter-table", nil, yeastDB, 14)
	})
	b.Run("hash-table", func(b *testing.B) {
		runVariant(b, "carpenter-table", carpenter.MineTableHash, yeastDB, 14)
	})
}

// BenchmarkTable1Matrix measures building the Table 1 matrix
// representation (the table-based Carpenter's preprocessing step).
func BenchmarkTable1Matrix(b *testing.B) {
	workloads()
	pre := prep.Prepare(thrombinDB, 30, prep.Config{Items: prep.OrderAscFreq, Trans: prep.OrderSizeAsc})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := pre.DB.Matrix()
		if m.N == 0 {
			b.Fatal("empty matrix")
		}
	}
}

// BenchmarkTreeAddTransaction isolates the IsTa prefix tree's per-
// transaction cost (insertion + intersection pass, Fig. 2).
func BenchmarkTreeAddTransaction(b *testing.B) {
	workloads()
	pre := prep.Prepare(yeastDB, 14, prep.Config{Items: prep.OrderAscFreq, Trans: prep.OrderSizeAsc})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := core.NewTree(pre.DB.NumItems())
		for k := 0; k < 40; k++ {
			tree.AddTransaction(pre.DB.Tx(k))
		}
	}
}

// BenchmarkIntersect measures the canonical sorted-slice intersection that
// every algorithm leans on.
func BenchmarkIntersect(b *testing.B) {
	a := make(itemset.Set, 0, 1000)
	c := make(itemset.Set, 0, 1000)
	for i := 0; i < 3000; i += 3 {
		a = append(a, itemset.Item(i))
	}
	for i := 0; i < 3000; i += 2 {
		c = append(c, itemset.Item(i))
	}
	buf := make(itemset.Set, 0, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = a.IntersectInto(buf, c)
	}
	if len(buf) == 0 {
		b.Fatal("empty intersection")
	}
}

// BenchmarkFlatBaselineOracle measures the brute-force oracle used by the
// test suite, documenting why it is capped at 20 transactions.
func BenchmarkFlatBaselineOracle(b *testing.B) {
	db := NewDatabase([][]int{
		{0, 1, 2}, {0, 3, 4}, {1, 2, 3}, {0, 1, 2, 3},
		{1, 2}, {0, 1, 3}, {3, 4}, {2, 3, 4},
		{0, 2, 4}, {1, 3, 4}, {0, 1, 4}, {2, 3},
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := naive.ClosedByTransactionSubsets(db, 2); err != nil {
			b.Fatal(err)
		}
	}
}
