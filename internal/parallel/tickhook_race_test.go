package parallel

import (
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/gendata"
	"repro/internal/mining"
	"repro/internal/result"
)

// TestTickHookInstallDuringParallelMine is the regression test for the
// tick-hook data race: installing and removing the global hook while
// parallel miners are running (many worker controls ticking) used to be
// an unsynchronized write racing unsynchronized reads. With the hook
// held atomically and sampled once per control, this loop is clean under
// -race, the mined pattern sets stay correct, and a hook installed
// mid-run never fires in controls created before it (and so cannot
// corrupt a result).
func TestTickHookInstallDuringParallelMine(t *testing.T) {
	db := gendata.Quest(gendata.QuestConfig{
		Transactions: 400, Items: 40, AvgLen: 8, Patterns: 12, AvgPatternLen: 4, Seed: 21,
	})
	const minsup = 8
	want := seqIsTa(t, db, minsup)

	stop := make(chan struct{})
	var togglers sync.WaitGroup
	for g := 0; g < 2; g++ {
		togglers.Add(1)
		go func() {
			defer togglers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				restore := mining.SetTickHook(func() error { return nil })
				restore()
			}
		}()
	}

	for trial := 0; trial < 20; trial++ {
		var out result.Set
		if err := engine.Run(db, "ista", engine.Spec{MinSupport: minsup, Workers: 4}, out.Collect()); err != nil {
			t.Fatal(err)
		}
		if !out.Equal(want) {
			t.Fatalf("trial %d: pattern set diverged while the hook was toggled:\n%s", trial, out.Diff(want, 10))
		}
	}
	close(stop)
	togglers.Wait()
}
