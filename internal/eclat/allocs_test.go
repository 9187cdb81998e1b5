package eclat

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/gendata"
	"repro/internal/itemset"
	"repro/internal/prep"
	"repro/internal/result"
	"repro/internal/tidset"
	"repro/internal/txdb"
)

// TestEclatLevelAllocs pins the steady-state allocation budget of one
// Eclat recursion level at zero: after a warm-up descent has sized the
// kernel's arenas and the depth-scoped extension buffers, building all
// frequent extensions of a node (the entire per-node intersection work)
// must not allocate. Any per-intersection make() reintroduced into the
// kernel or the miners trips this immediately; the CI smoke step runs it
// on every push.
func TestEclatLevelAllocs(t *testing.T) { checkLevelAllocs(t, false) }

// TestEclatLevelAllocsPairs is TestEclatLevelAllocs with the pair matrix
// built, so the root level reads pair supports before it intersects.
func TestEclatLevelAllocsPairs(t *testing.T) { checkLevelAllocs(t, true) }

func checkLevelAllocs(t *testing.T, pairs bool) {
	// The reference workload of the kernel benchmarks: a dense Bernoulli
	// database where intersections are long enough that a stray per-call
	// allocation cannot hide in noise.
	const rows, items = 1000, 32
	rng := rand.New(rand.NewSource(7))
	b := txdb.NewBuilder(rows, rows*items/2)
	b.SetNumItems(items)
	row := make(itemset.Set, 0, items)
	for k := 0; k < rows; k++ {
		row = row[:0]
		for i := 0; i < items; i++ {
			if rng.Float64() < 0.5 {
				row = append(row, itemset.Item(i))
			}
		}
		b.AddRow(row)
	}
	pre := prep.Prepare(b.Build(), 1, prep.Config{Items: prep.OrderAscFreq, Trans: prep.OrderOriginal})
	pdb := pre.DB

	m := &eclatMiner{minsup: rows / 4, target: engine.Closed, pre: pre, db: pdb}
	m.ker = tidset.NewKernel(pdb.KernelUniverse())
	if pairs {
		var err error
		if m.pairSupp, err = countPairs(pdb, nil); err != nil {
			t.Fatal(err)
		}
	}
	sets := pdb.KernelSets()
	root := make([]ext, 0, len(sets))
	for i := range sets {
		root = append(root, ext{item: itemset.Item(i), set: sets[i]})
	}

	// Warm-up: size arenas and buffers once (chunks are retained).
	m.extend(0, &root[0], root[1:])

	allocs := testing.AllocsPerRun(20, func() {
		for idx := range root[:8] {
			m.extend(0, &root[idx], root[idx+1:])
		}
	})
	if allocs != 0 {
		t.Fatalf("one eclat recursion level allocated %.0f times, want 0", allocs)
	}
}

// TestClosedAllocs pins ClosedAllocBudget: the bytes one engine run of
// the Closed target allocates on the dense reference ramp (prep, kernel
// arenas, closure candidates and the closed index).
func TestClosedAllocs(t *testing.T) {
	db := gendata.Dense(2000, 48, 0.05, 0.90, 1)
	const minsup = 550
	best, allocs := uint64(1<<62), uint64(0)
	for run := 0; run < 3; run++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := mine(db, minsup, engine.Closed, nil, &result.Counter{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; b < best {
			best, allocs = b, after.Mallocs-before.Mallocs
		}
	}
	t.Logf("eclat closed: %d bytes in %d allocations on Dense(2000, 48) at minsup %d (budget %d)", best, allocs, minsup, ClosedAllocBudget)
	if best > ClosedAllocBudget {
		t.Fatalf("eclat closed allocated %d bytes, budget %d", best, ClosedAllocBudget)
	}
}
