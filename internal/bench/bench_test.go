package bench

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/gendata"
	"repro/internal/itemset"
	"repro/internal/result"
	"repro/internal/txdb"
)

func smallDB() *txdb.DB {
	rng := rand.New(rand.NewSource(42))
	b := txdb.NewBuilder(30, 0)
	b.SetNumItems(20)
	for k := 0; k < 30; k++ {
		var t itemset.Set
		for i := 0; i < 20; i++ {
			if rng.Float64() < 0.3 {
				t = append(t, itemset.Item(i))
			}
		}
		b.AddSet(t)
	}
	return b.Build()
}

func TestAlgorithmsRegistryComplete(t *testing.T) {
	algos := Algorithms()
	for _, name := range []string{"ista", "carp-table", "carp-lists", "fpclose", "lcm", "eclat-closed", "flat",
		"cobbler", "sam", "ista-noprune", "carp-table-noelim", "carp-lists-noelim", "carp-table-hash"} {
		if _, ok := algos[name]; !ok {
			t.Errorf("algorithm %q missing from registry", name)
		}
	}
}

// TestEveryAlgorithmCarriesStats: every bench algorithm, the ablation
// variants included, runs through the engine, so its cells carry the
// run's Stats: the miner's name and the prep/mine split.
func TestEveryAlgorithmCarriesStats(t *testing.T) {
	db := smallDB()
	for name, a := range Algorithms() {
		var st engine.Stats
		if err := a.Run(db, 3, nil, &st, &result.Counter{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Algorithm == "" || st.MineTime <= 0 {
			t.Errorf("%s: Stats not filled (algorithm %q, mine time %v)", name, st.Algorithm, st.MineTime)
		}
	}
}

// TestSweepAgreement is the cross-algorithm integration test at harness
// level: all registered closed-set miners agree on every sweep level of a
// realistic workload (Sweep returns an error on any disagreement).
func TestSweepAgreement(t *testing.T) {
	db := smallDB()
	algos := []string{"ista", "ista-noprune", "carp-table", "carp-lists",
		"carp-table-noelim", "carp-lists-noelim", "carp-table-hash",
		"fpclose", "lcm", "eclat-closed", "cobbler", "sam", "flat"}
	rows, err := Sweep(db, []int{8, 5, 3, 2}, algos, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Closed < 0 {
			t.Fatalf("no algorithm finished at minsup %d", r.MinSupport)
		}
	}
	// Counts must strictly grow as support drops on this workload.
	for i := 1; i < len(rows); i++ {
		if rows[i].Closed < rows[i-1].Closed {
			t.Fatalf("closed count decreased: %v", rows)
		}
	}
}

func TestSweepAgreementOnGeneratedWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("generated workloads are slow")
	}
	cases := []struct {
		name string
		db   *txdb.DB
		ms   []int
	}{
		{"yeast", gendata.Yeast(0.04, 7), []int{10, 6}},
		{"ncbi60", gendata.NCBI60(0.05, 8), []int{54, 50}},
		{"thrombin", gendata.Thrombin(0.005, 9), []int{38, 34}},
		{"webview", gendata.WebView(0.06, 10), []int{10, 6}},
	}
	algos := []string{"ista", "carp-table", "carp-lists", "fpclose", "lcm"}
	for _, tc := range cases {
		if _, err := Sweep(tc.db, tc.ms, algos, time.Minute); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

func TestSweepUnknownAlgo(t *testing.T) {
	if _, err := Sweep(smallDB(), []int{2}, []string{"nope"}, time.Second); err == nil {
		t.Fatal("expected unknown algorithm error")
	}
}

func TestRunOneTimeout(t *testing.T) {
	// A 1ns timeout must cancel any non-trivial run.
	db := gendata.Yeast(0.05, 3)
	cell := RunOne(Algorithms()["ista"], db, 2, time.Nanosecond)
	if !cell.TimedOut {
		t.Fatal("expected timeout")
	}
	// Timed-out algorithms are skipped at lower supports. (Both levels are
	// expensive enough to reach a cancellation checkpoint.)
	rows, err := Sweep(db, []int{3, 2}, []string{"ista"}, time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if !rows[0].Cells["ista"].TimedOut {
		t.Fatal("first level should time out")
	}
	if !rows[1].Cells["ista"].Skipped {
		t.Fatal("second level should be skipped")
	}
}

func TestWriteTableFormatting(t *testing.T) {
	rows := []Row{
		{MinSupport: 5, Closed: 10, Cells: map[string]Cell{
			"ista": {Time: 1500 * time.Microsecond},
			"lcm":  {TimedOut: true},
		}},
		{MinSupport: 3, Closed: -1, Cells: map[string]Cell{
			"ista": {Time: 2 * time.Second},
			"lcm":  {Skipped: true},
		}},
	}
	var sb strings.Builder
	WriteTable(&sb, "demo", txdb.Stats{Transactions: 4}, []string{"ista", "lcm"}, rows)
	out := sb.String()
	for _, want := range []string{"demo", "minsup", "t/o", "0.0015", "2.00", "#closed", "10"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	sb.Reset()
	WriteLogSeries(&sb, []string{"ista", "lcm"}, rows)
	if !strings.Contains(sb.String(), "log10") {
		t.Error("log series header missing")
	}
}

func TestSpeedup(t *testing.T) {
	rows := []Row{
		{MinSupport: 5, Cells: map[string]Cell{
			"a": {Time: time.Second},
			"b": {Time: 2 * time.Second},
		}},
		{MinSupport: 3, Cells: map[string]Cell{
			"a": {Time: time.Second},
			"b": {TimedOut: true},
		}},
	}
	ms, f, ok := Speedup(rows, "a", "b")
	if !ok || ms != 5 || f != 2.0 {
		t.Fatalf("Speedup = %d %f %v", ms, f, ok)
	}
	if _, _, ok := Speedup(rows, "a", "c"); ok {
		t.Fatal("missing algorithm should not report a speedup")
	}
}

func TestExperimentRegistry(t *testing.T) {
	reg := Registry()
	if len(reg) < 9 {
		t.Fatalf("registry has %d experiments", len(reg))
	}
	ids := map[string]bool{}
	for _, e := range reg {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, id := range []string{"table1", "fig5", "fig6", "fig7", "fig8", "flat", "orders", "prune", "cobbler", "scaling", "repo"} {
		if !ids[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
	if _, ok := Get("fig5"); !ok {
		t.Error("Get(fig5) failed")
	}
	if _, ok := Get("nope"); ok {
		t.Error("Get(nope) should fail")
	}
}

// TestTable1Experiment checks that the table1 experiment renders the
// paper's exact matrix.
func TestTable1Experiment(t *testing.T) {
	e, _ := Get("table1")
	var sb strings.Builder
	if err := e.Run(Config{}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"t1     4   5   5   0   0",
		"t2     3   0   0   6   3",
		"t8     0   0   1   1   1",
	} {
		if !strings.Contains(sb.String(), line) {
			t.Errorf("table1 output missing %q:\n%s", line, sb.String())
		}
	}
}

// TestTinyExperimentsRun smoke-tests the sweep experiments at a tiny scale
// so `go test` exercises the full harness path end to end.
func TestTinyExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	// The tight timeout keeps this a smoke test: levels that exceed it
	// are reported as timeouts, which is a valid harness outcome.
	cfg := Config{Scale: 0.02, Timeout: 300 * time.Millisecond}
	for _, id := range []string{"fig5", "fig6", "fig7", "fig8"} {
		e, ok := Get(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		var sb strings.Builder
		if err := e.Run(cfg, &sb); err != nil {
			t.Errorf("%s: %v", id, err)
		}
		if !strings.Contains(sb.String(), "minsup") {
			t.Errorf("%s produced no table", id)
		}
	}
}
