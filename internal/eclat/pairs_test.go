package eclat

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/gendata"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/prep"
	"repro/internal/result"
	"repro/internal/tidset"
	"repro/internal/txdb"
)

// runPairs mines db with the pair-count prefilter in the given mode and
// returns every report in order, rendered as text, and the run's
// counters.
func runPairs(t *testing.T, db *txdb.DB, minsup int, target engine.Target, mode pairMode) ([]string, obs.Counts) {
	t.Helper()
	var c obs.Counters
	ctl := mining.GuardedCounted(nil, nil, &c)
	var out []string
	pre := prepare(db, minsup)
	m := &eclatMiner{
		minsup: minsup,
		target: target,
		pre:    pre,
		db:     pre.DB,
		rep: result.ReporterFunc(func(items itemset.Set, supp int) {
			out = append(out, fmt.Sprintf("%v (%d)", items, supp))
		}),
		ctl:   ctl,
		pairs: mode,
	}
	if err := m.mineTarget(); err != nil {
		t.Fatal(err)
	}
	ctl.Flush()
	return out, c.Load()
}

// prepare preprocesses db the way the engine does for eclat.
func prepare(db *txdb.DB, minsup int) *prep.Prepared {
	reg, _ := engine.Lookup("eclat")
	return prep.Prepare(db, minsup, reg.Prep)
}

// TestPairPrefilterAgrees checks that skipping the root pairs the
// counting pass found infrequent changes no report and no report's
// place, for every target, on unit-weight, duplicate-merged and
// explicitly weighted databases.
func TestPairPrefilterAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 80; trial++ {
		items := 2 + rng.Intn(14)
		n := 1 + rng.Intn(60)
		plain := randDB(rng, items, n, 0.15+rng.Float64()*0.6)
		wb := txdb.NewBuilder(n, 0)
		wb.SetNumItems(items)
		for k := 0; k < plain.NumTx(); k++ {
			wb.AddWeighted(plain.Tx(k), 1+rng.Intn(5))
		}
		dbs := map[string]*txdb.DB{"plain": plain, "merged": txdb.MergeDuplicates(plain), "weighted": wb.Build()}
		for form, db := range dbs {
			minsup := 1 + rng.Intn(1+db.TotalWeight()/3)
			for _, target := range []engine.Target{engine.All, engine.Closed, engine.Maximal} {
				off, offC := runPairs(t, db, minsup, target, pairsOff)
				on, onC := runPairs(t, db, minsup, target, pairsOn)
				if !reflect.DeepEqual(on, off) {
					t.Fatalf("trial %d %s %v minsup %d: prefilter changed the output\non:  %v\noff: %v\ndb: %v",
						trial, form, target, minsup, on, off, db)
				}
				if onC.Ops != offC.Ops || onC.Isects > offC.Isects {
					t.Fatalf("trial %d %s %v: counters on %+v, off %+v", trial, form, target, onC, offC)
				}
			}
		}
	}
}

// basketDB is perfbench's basket base database: sparse Quest baskets.
func basketDB() *txdb.DB {
	return gendata.Quest(gendata.QuestConfig{
		Items: 1000, Transactions: 20000, AvgLen: 10,
		Patterns: 200, AvgPatternLen: 4, Bundles: 20, Seed: 1,
	})
}

// TestPairCountCostRule pins the rule's choice on both sides of it:
// on sparse baskets the root level merges long lists to find most pairs
// infrequent, so counting pays; on the dense ramp every base set is a
// bitmap, the root's word-parallel ANDs are cheap and counting does not.
func TestPairCountCostRule(t *testing.T) {
	cases := []struct {
		name   string
		db     *txdb.DB
		minsup int
		want   bool
	}{
		{"basket", basketDB(), 300, true},
		{"dense", gendata.Dense(2000, 48, 0.05, 0.90, 1), 550, false},
	}
	for _, c := range cases {
		pdb := prepare(c.db, c.minsup).DB
		if got := pairCountPays(pdb, pdb.KernelSets()); got != c.want {
			t.Errorf("%s: pairCountPays = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestRootWork checks the sorted-cardinality sum against the pair loop
// it replaces.
func TestRootWork(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 20; trial++ {
		db := randDB(rng, 2+rng.Intn(20), 256+rng.Intn(600), 0.01+rng.Float64()*0.3)
		sets := db.KernelSets()
		words := (db.NumTx() + 63) / 64
		want := 0
		for i := range sets {
			for j := i + 1; j < len(sets); j++ {
				switch {
				case sets[i].Rep() == tidset.Dense && sets[j].Rep() == tidset.Dense:
					want += words
				default:
					want += min(sets[i].Card(), sets[j].Card())
				}
			}
		}
		if got := rootWork(sets, words); got != want {
			t.Fatalf("trial %d: rootWork = %d, want %d", trial, got, want)
		}
	}
}

// TestPairPrefilterCutsIsects checks on a basket-shaped database that
// the cost rule turns the pass on and that it removes root
// intersections without changing the output or the ops count.
func TestPairPrefilterCutsIsects(t *testing.T) {
	db := gendata.Quest(gendata.QuestConfig{
		Items: 500, Transactions: 5000, AvgLen: 10,
		Patterns: 100, AvgPatternLen: 4, Bundles: 10, Seed: 3,
	})
	const minsup = 75
	off, offC := runPairs(t, db, minsup, engine.Closed, pairsOff)
	on, onC := runPairs(t, db, minsup, engine.Closed, pairsByCost)
	if !reflect.DeepEqual(on, off) {
		t.Fatal("prefilter changed the output")
	}
	if onC.Ops != offC.Ops {
		t.Errorf("ops = %d with the prefilter, %d without", onC.Ops, offC.Ops)
	}
	if onC.Isects*2 > offC.Isects || onC.EarlyStops >= offC.EarlyStops {
		t.Errorf("isects %d, early stops %d with the prefilter; %d, %d without",
			onC.Isects, onC.EarlyStops, offC.Isects, offC.EarlyStops)
	}
}

// TestPairCountCancel checks that the counting pass polls for
// cancellation: on a run canceled before it starts, the pass stops at its
// first poll, leaves no matrix, and the miner returns ErrCanceled.
func TestPairCountCancel(t *testing.T) {
	pre := prepare(basketDB(), 300)
	done := make(chan struct{})
	close(done)
	if counts, err := countPairs(pre.DB, mining.NewControl(done)); err != mining.ErrCanceled || counts != nil {
		t.Fatalf("countPairs on a canceled run = (%d counts, %v), want (none, ErrCanceled)", len(counts), err)
	}

	m := &eclatMiner{
		minsup: 300,
		target: engine.Closed,
		pre:    pre,
		db:     pre.DB,
		ctl:    mining.NewControl(done),
		pairs:  pairsOn,
	}
	if err := m.mineTarget(); err != mining.ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if m.pairSupp != nil {
		t.Fatal("the counting pass ran to the end on a canceled run")
	}
}
