// Seeded chaos conformance: every registered algorithm (and the
// parallel engines) is driven under deterministic fault schedules drawn
// from fixed seeds, and every run must land in one of the documented
// outcomes — healed to the oracle-identical result, a typed partial
// result whose patterns are sound, or a typed abort with a valid result
// prefix. Never a process panic, never silent loss, never a leaked
// goroutine. A failure names its schedule (chaos.String() is in the
// subtest name via the seed), so the exact run reproduces from the log.
package fim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/naive"
)

// chaosDB builds a database at the brute-force oracle's transaction
// limit, dense enough that every miner performs enough work (ticks, tree
// nodes) to give the drawn fault points a chance to fire.
func chaosDB() *Database {
	rng := rand.New(rand.NewSource(17))
	rows := make([][]int, 20)
	for k := range rows {
		for i := 0; i < 12; i++ {
			if rng.Float64() < 0.45 {
				rows[k] = append(rows[k], i)
			}
		}
		if len(rows[k]) == 0 {
			rows[k] = append(rows[k], k%12)
		}
	}
	return NewDatabase(rows)
}

// chaosSeeds is the fixed seed matrix CI sweeps; each seed yields one
// deterministic fault schedule per run.
func chaosSeeds(short bool) []int64 {
	if short {
		return []int64{1, 2, 3}
	}
	return []int64{1, 2, 3, 4, 5, 6, 7, 8}
}

// TestChaosConformance sweeps the algorithm registry across the seeded
// fault schedules and asserts the self-healing outcome contract.
func TestChaosConformance(t *testing.T) {
	db := chaosDB()
	const minsup = 3

	want, err := naive.ClosedByTransactionSubsets(db, minsup)
	if err != nil {
		t.Fatal(err)
	}
	wantSupp := make(map[string]int, want.Len())
	for _, p := range want.Patterns {
		wantSupp[p.Items.Key()] = p.Support
	}

	for _, seed := range chaosSeeds(testing.Short()) {
		for _, c := range guardCases() {
			c := c
			seed := seed
			t.Run(fmt.Sprintf("%s/seed=%d", c.name, seed), func(t *testing.T) {
				defer faultinject.LeakCheck(t)()
				chaos := faultinject.NewChaos(seed, faultinject.ChaosConfig{
					PanicTicks: 2, ErrTicks: 2, TreeNodes: 1,
					MaxTick: 300, MaxTreeNode: 40,
				})
				restore := chaos.Arm()
				defer restore()

				var st MiningStats
				var out ResultSet
				err := Mine(db, Options{
					MinSupport:  minsup,
					Algorithm:   c.algo,
					Parallelism: c.par,
					Retries:     3,
					Stats:       &st,
				}, out.Collect())
				out.Sort()

				var pe *PartialError
				switch {
				case err == nil:
					// Healed (or the schedule never fired): the result must
					// be exactly the oracle's.
					if !out.Equal(want) {
						t.Errorf("%v: fired=%d, healed run differs from oracle:\n%s",
							chaos, chaos.Fired(), out.Diff(want, 10))
					}
				case errors.As(err, &pe):
					// Degraded: a typed partial result with a per-shard
					// report, every pattern closed in the full database with
					// a support that is a lower bound at or above minsup.
					if !errors.Is(err, ErrPartial) {
						t.Errorf("%v: partial error does not wrap ErrPartial: %v", chaos, err)
					}
					if len(pe.Shards) == 0 {
						t.Errorf("%v: partial result without a shard report", chaos)
					}
					for _, p := range out.Patterns {
						trueSupp, ok := wantSupp[p.Items.Key()]
						switch {
						case !ok:
							t.Errorf("%v: degraded result contains %v, not in the oracle", chaos, p)
						case p.Support > trueSupp:
							t.Errorf("%v: degraded result overstates %v: %d > %d", chaos, p.Items, p.Support, trueSupp)
						case p.Support < minsup:
							t.Errorf("%v: degraded result reports %v below minsup", chaos, p.Items)
						}
					}
				case isChaosAbort(err):
					// Typed abort: whatever was reported before the stop is a
					// valid prefix — exact supports, all in the oracle.
					assertPrefix(t, want, &out)
				default:
					t.Errorf("%v: fired=%d, undocumented failure: %v", chaos, chaos.Fired(), err)
				}
			})
		}
	}
}

// isChaosAbort reports whether err is one of the documented typed aborts
// a chaos schedule can cause: a contained panic, the injected tick error
// (which no supervisor retries), or a latched stop.
func isChaosAbort(err error) bool {
	var pe *PanicError
	return errors.As(err, &pe) ||
		errors.Is(err, faultinject.ErrChaos) ||
		errors.Is(err, ErrCanceled) ||
		errors.Is(err, ErrDeadline) ||
		errors.Is(err, ErrBudget)
}

// TestChaosDeterminism pins the harness itself: equal seeds draw equal
// schedules, different seeds draw different ones (for this config), and
// a schedule prints itself for reproduction.
func TestChaosDeterminism(t *testing.T) {
	cfg := faultinject.ChaosConfig{
		PanicTicks: 2, ErrTicks: 2, TreeNodes: 1, MaxTick: 300, MaxTreeNode: 40,
	}
	a := faultinject.NewChaos(42, cfg)
	b := faultinject.NewChaos(42, cfg)
	if a.String() != b.String() {
		t.Fatalf("equal seeds drew different schedules:\n%s\n%s", a, b)
	}
	c := faultinject.NewChaos(43, cfg)
	if a.String() == c.String() {
		t.Fatalf("different seeds drew the same schedule: %s", a)
	}
	if a.Fired() != 0 {
		t.Fatalf("unarmed schedule reports %d fired faults", a.Fired())
	}
}
