package fim

import (
	"math/rand"
	"testing"

	"repro/internal/mining"
	"repro/internal/naive"
	"repro/internal/txdb"
)

func paperExample() *Database {
	return NewDatabase([][]int{
		{0, 1, 2},
		{0, 3, 4},
		{1, 2, 3},
		{0, 1, 2, 3},
		{1, 2},
		{0, 1, 3},
		{3, 4},
		{2, 3, 4},
	})
}

// TestAllAlgorithmsAgree runs every public closed-set algorithm on the
// paper's example database and checks they produce the identical result.
func TestAllAlgorithmsAgree(t *testing.T) {
	db := paperExample()
	for _, minsup := range []int{1, 2, 3, 4, 6} {
		ref, err := MineClosed(db, minsup)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range Algorithms() {
			var got ResultSet
			if err := Mine(db, Options{MinSupport: minsup, Algorithm: algo}, got.Collect()); err != nil {
				t.Fatalf("%s: %v", algo, err)
			}
			if !got.Equal(ref) {
				t.Fatalf("%s disagrees at minsup %d:\n%s", algo, minsup, got.Diff(ref, 10))
			}
		}
	}
}

func TestMineClosedPaperExample(t *testing.T) {
	got, err := MineClosed(paperExample(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 10 {
		t.Fatalf("closed sets at minsup 3: %d, want 10", got.Len())
	}
	for _, p := range got.Patterns {
		if !IsClosed(paperExample(), p.Items) {
			t.Errorf("%v reported but not closed", p)
		}
		if Support(paperExample(), p.Items) != p.Support {
			t.Errorf("%v support mismatch", p)
		}
	}
}

func TestMineUnknownAlgorithm(t *testing.T) {
	err := Mine(paperExample(), Options{MinSupport: 1, Algorithm: "nope"}, ReporterFunc(func(ItemSet, int) {}))
	if err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
}

func TestMineAllVsClosed(t *testing.T) {
	db := paperExample()
	all, err := MineAll(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	closed, err := MineClosed(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := naive.FrequentByItemSubsets(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !all.Equal(want) {
		t.Fatalf("FP-growth(all) and the brute-force oracle disagree:\n%s", all.Diff(want, 10))
	}
	if all.Len() <= closed.Len() {
		t.Fatal("all frequent sets should outnumber closed ones here")
	}
	// Every closed set is frequent; every frequent set has a closed
	// superset with the same support.
	for _, p := range all.Patterns {
		found := false
		for _, c := range closed.Patterns {
			if c.Support == p.Support && p.Items.SubsetOf(c.Items) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("frequent set %v has no closed superset with equal support", p)
		}
	}
}

func TestMineMaximal(t *testing.T) {
	db := paperExample()
	maximal, err := MineMaximal(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	closed, err := MineClosed(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	if maximal.Len() == 0 || maximal.Len() >= closed.Len() {
		t.Fatalf("maximal = %d, closed = %d", maximal.Len(), closed.Len())
	}
	for i := range maximal.Patterns {
		for j := range maximal.Patterns {
			if i != j && maximal.Patterns[i].Items.SubsetOf(maximal.Patterns[j].Items) {
				t.Fatal("maximal output contains nested sets")
			}
		}
	}
}

func TestCancellationSurfacesError(t *testing.T) {
	done := make(chan struct{})
	close(done)
	db := GenYeast(0.05, 1)
	err := Mine(db, Options{MinSupport: 2, Done: done}, ReporterFunc(func(ItemSet, int) {}))
	if err != mining.ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestCancellationConformance: every algorithm — and the parallel engines —
// must return ErrCanceled promptly when Done is closed before the run
// starts, without reporting a single pattern.
func TestCancellationConformance(t *testing.T) {
	done := make(chan struct{})
	close(done)
	db := paperExample()
	check := func(name string, opts Options) {
		reported := 0
		err := Mine(db, opts, ReporterFunc(func(ItemSet, int) { reported++ }))
		if err != mining.ErrCanceled {
			t.Errorf("%s: err = %v, want ErrCanceled", name, err)
		}
		if reported != 0 {
			t.Errorf("%s: reported %d patterns after pre-closed Done", name, reported)
		}
	}
	for _, algo := range Algorithms() {
		check(string(algo), Options{MinSupport: 2, Algorithm: algo, Done: done})
	}
	check("ista-parallel", Options{MinSupport: 2, Algorithm: IsTa, Done: done, Parallelism: 4})
	check("carpenter-table-parallel", Options{MinSupport: 2, Algorithm: CarpenterTable, Done: done, Parallelism: 4})
}

// TestParallelismRouting: Parallelism must leave the result unchanged for
// the algorithms with a parallel engine and be ignored by the others.
func TestParallelismRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := make([][]int, 80)
	for i := range rows {
		for item := 0; item < 14; item++ {
			if rng.Intn(3) == 0 {
				rows[i] = append(rows[i], item)
			}
		}
	}
	db := NewDatabase(rows)
	ref, err := MineClosed(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range Algorithms() {
		for _, p := range []int{-1, 0, 1, 2, 8} {
			var got ResultSet
			if err := Mine(db, Options{MinSupport: 3, Algorithm: algo, Parallelism: p}, got.Collect()); err != nil {
				t.Fatalf("%s at parallelism %d: %v", algo, p, err)
			}
			got.Sort()
			if !got.Equal(ref) {
				t.Fatalf("%s at parallelism %d disagrees:\n%s", algo, p, got.Diff(ref, 10))
			}
		}
	}
}

func TestMineParallel(t *testing.T) {
	db := paperExample()
	ref, err := MineClosed(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 3, 8} {
		got, err := MineParallel(db, 2, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(ref) {
			t.Fatalf("MineParallel(%d workers) disagrees:\n%s", workers, got.Diff(ref, 10))
		}
	}
}

func TestRulesFromClosed(t *testing.T) {
	db := paperExample()
	closed, err := MineClosed(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	rs := Rules(closed, db.NumTx(), RuleOptions{MinConfidence: 0.8})
	if len(rs) == 0 {
		t.Fatal("no rules")
	}
	for _, r := range rs {
		if r.Confidence < 0.8 {
			t.Errorf("rule %v below confidence threshold", r)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := paperExample()
	if err := WriteFile(dir+"/x.dat", db); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(dir + "/x.dat")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := MineClosed(db, 2)
	b, err := MineClosed(back, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("round-tripped database mines differently")
	}
}

func TestTransposeAndGenerators(t *testing.T) {
	db := GenQuest(QuestConfig{Items: 30, Transactions: 100, AvgLen: 6, Patterns: 8, AvgPatternLen: 3, Seed: 1})
	tr := Transpose(db)
	if tr.NumTx() != 30 {
		t.Fatalf("transposed rows = %d", tr.NumTx())
	}
	for _, gen := range []*Database{
		GenYeast(0.03, 1), GenNCBI60(0.03, 2), GenThrombin(0.003, 3), GenWebView(0.02, 4),
	} {
		if err := txdb.Validate(gen); err != nil {
			t.Fatal(err)
		}
		// High support keeps this a shape smoke test (low supports on the
		// dense generators produce millions of closed sets).
		if _, err := MineClosed(gen, gen.NumTx()*19/20+1); err != nil {
			t.Fatal(err)
		}
	}
	m := GenExpression(ExpressionConfig{Genes: 40, Conditions: 10, Modules: 2,
		ModuleGeneFrac: 0.5, ModuleCondFrac: 0.4, Effect: 0.5, Noise: 0.1, Seed: 9})
	d1 := Discretize(m, 0.2, 0.2, GenesAsTransactions)
	d2 := Discretize(m, 0.2, 0.2, ConditionsAsTransactions)
	if d1.NumTx() != 40 || d2.NumTx() != 10 {
		t.Fatalf("orientation shapes: %d, %d", d1.NumTx(), d2.NumTx())
	}
}

func TestNewItemSetAndSupport(t *testing.T) {
	db := paperExample()
	s := NewItemSet(2, 1) // canonicalized to {1,2}
	if Support(db, s) != 4 {
		t.Fatalf("Support({1,2}) = %d", Support(db, s))
	}
	if !IsClosed(db, s) {
		t.Fatal("{1,2} is closed")
	}
	if IsClosed(db, NewItemSet(0, 2)) {
		t.Fatal("{0,2} is not closed")
	}
}

func TestIncrementalMinerFacade(t *testing.T) {
	db := paperExample()
	m := NewIncrementalMiner(db.NumItems())
	for k := 0; k < db.NumTx(); k++ {
		if err := m.AddSet(db.Tx(k)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := MineClosed(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := m.ClosedSet(3)
	if !got.Equal(want) {
		t.Fatalf("incremental disagrees with batch:\n%s", got.Diff(want, 10))
	}
}

func TestSupportIndexFacade(t *testing.T) {
	db := paperExample()
	closed, err := MineClosed(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	idx := NewSupportIndex(closed, db.NumTx())
	for _, tc := range []struct {
		items ItemSet
		want  int
	}{
		{NewItemSet(1, 2), 4},
		{NewItemSet(0, 2), 2}, // not closed, support via closed superset
		{NewItemSet(3), 6},
	} {
		got, ok := idx.Support(tc.items)
		if !ok || got != tc.want {
			t.Errorf("Support(%v) = %d/%v, want %d", tc.items, got, ok, tc.want)
		}
	}
}

// TestAllAlgorithmsAgreeRandom extends the agreement check to randomized
// databases large enough to exercise every code path (pruning, perfect
// extensions, repositories, row switches) in all nine miners.
func TestAllAlgorithmsAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 8; trial++ {
		items := 15 + rng.Intn(25)
		n := 20 + rng.Intn(40)
		rows := make([][]int, n)
		for k := range rows {
			for i := 0; i < items; i++ {
				if rng.Float64() < 0.15+rng.Float64()*0.2 {
					rows[k] = append(rows[k], i)
				}
			}
		}
		db := NewDatabase(rows)
		minsup := 2 + rng.Intn(4)
		ref, err := MineClosed(db, minsup)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range Algorithms() {
			var got ResultSet
			if err := Mine(db, Options{MinSupport: minsup, Algorithm: algo}, got.Collect()); err != nil {
				t.Fatalf("%s: %v", algo, err)
			}
			if !got.Equal(ref) {
				t.Fatalf("%s disagrees (trial %d, minsup %d):\n%s", algo, trial, minsup, got.Diff(ref, 10))
			}
		}
	}
}
