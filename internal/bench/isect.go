package bench

import (
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/gendata"
	"repro/internal/obs"
	"repro/internal/tidset"
)

// This file implements the isect experiment: a micro-benchmark of the
// tid-set intersection kernels (pure sorted-sparse merge vs pure dense
// bitmap AND vs the adaptive tidset kernel, across densities) followed
// by the dense end-to-end mining workload the kernel was built for. The
// JSON written from a full run is the repository's checked-in perf
// baseline (BENCH_10.json).

// isectSets is the micro-benchmark input: one batch of random tid sets
// at a fixed density, held in all three representations under test.
type isectSets struct {
	n     int       // universe size
	tids  [][]int32 // sorted-sparse reference form
	words [][]uint64
	sets  []tidset.Set
	ker   *tidset.Kernel
}

func buildIsectSets(n, count int, density float64, seed int64) *isectSets {
	rng := rand.New(rand.NewSource(seed))
	u := tidset.Universe{N: n}
	wl := &isectSets{n: n, ker: tidset.NewKernel(u)}
	nw := (n + 63) / 64
	for s := 0; s < count; s++ {
		var tids []int32
		words := make([]uint64, nw)
		for t := 0; t < n; t++ {
			if rng.Float64() < density {
				tids = append(tids, int32(t))
				words[t/64] |= 1 << (uint(t) % 64)
			}
		}
		wl.tids = append(wl.tids, tids)
		wl.words = append(wl.words, words)
		wl.sets = append(wl.sets, u.Promote(u.FromSorted(tids)))
	}
	return wl
}

func (wl *isectSets) pairs() int { k := len(wl.tids); return k * (k - 1) / 2 }

// sparsePass is the pre-kernel reference: a two-pointer merge over the
// sorted tid slices, materializing every result into a fresh slice
// (exactly what the deleted per-miner intersectTids helpers did).
func (wl *isectSets) sparsePass() int {
	sum := 0
	for i := range wl.tids {
		for j := i + 1; j < len(wl.tids); j++ {
			a, b := wl.tids[i], wl.tids[j]
			out := make([]int32, 0, min(len(a), len(b)))
			x, y := 0, 0
			for x < len(a) && y < len(b) {
				switch {
				case a[x] < b[y]:
					x++
				case a[x] > b[y]:
					y++
				default:
					out = append(out, a[x])
					x++
					y++
				}
			}
			sum += len(out)
		}
	}
	return sum
}

// densePass is the pure-bitmap reference: word-parallel AND into a
// freshly allocated word buffer plus a popcount sweep, paying the full
// universe width regardless of how sparse the operands are.
func (wl *isectSets) densePass() int {
	sum := 0
	for i := range wl.words {
		for j := i + 1; j < len(wl.words); j++ {
			a, b := wl.words[i], wl.words[j]
			out := make([]uint64, len(a))
			c := 0
			for k := range out {
				out[k] = a[k] & b[k]
				c += bits.OnesCount64(out[k])
			}
			sum += c
		}
	}
	return sum
}

// adaptivePass runs the same pair set through the tidset kernel, with
// the arena reset once per outer set — the same cadence as one eclat
// recursion level — so the steady state runs allocation-free.
func (wl *isectSets) adaptivePass() int {
	sum := 0
	ar := wl.ker.Level(0)
	for i := range wl.sets {
		ar.Reset()
		for j := i + 1; j < len(wl.sets); j++ {
			res, _ := wl.ker.Intersect(ar, &wl.sets[i], &wl.sets[j], 0)
			sum += res.Support()
		}
	}
	return sum
}

// measurePass times one already-warm pass and charges its allocation
// delta per intersection (the Cell's allocs/bytes fields therefore hold
// per-op values here, unlike the end-to-end sweeps where they hold the
// whole run's totals).
func measurePass(pass func() int, ops int) (Cell, int) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	sum := pass()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return Cell{
		Time: elapsed, Closed: sum, Counts: obs.Counts{Ops: int64(ops)},
		Allocs: int64(after.Mallocs-before.Mallocs) / int64(ops),
		Bytes:  int64(after.TotalAlloc-before.TotalAlloc) / int64(ops),
	}, sum
}

var isectMicroCols = []string{"isect-sparse", "isect-dense", "isect-adaptive"}

// runIsectMicro measures the three strategies at each density and
// returns one Row per density, with the density (in percent) standing
// in for the row's support level and the agreed support checksum in the
// Closed column.
func runIsectMicro(cfg Config, w io.Writer) ([]Row, error) {
	// The universe is wide enough (256 words) that the dense reference's
	// fixed per-pair cost is visible at the sparse end — that crossover
	// is exactly what the adaptive kernel navigates.
	n := int(16384 * cfg.scale(1))
	if n < 256 {
		n = 256
	}
	const count = 64
	densities := []float64{0.01, 0.05, 0.30, 0.60, 0.90}

	fmt.Fprintf(w, "pairwise intersection kernels: %d sets, %d-tid universe, %d pairs per pass\n",
		count, n, count*(count-1)/2)
	fmt.Fprintf(w, "(rows are densities; closed column holds the support checksum all strategies must agree on)\n\n")
	fmt.Fprintf(w, "%-8s", "density")
	for _, c := range isectMicroCols {
		fmt.Fprintf(w, "  %22s", c)
	}
	fmt.Fprintf(w, "  %12s\n", "checksum")
	fmt.Fprintf(w, "%-8s", "")
	for range isectMicroCols {
		fmt.Fprintf(w, "  %10s %11s", "ns/op", "allocs/op")
	}
	fmt.Fprintln(w)

	rows := make([]Row, 0, len(densities))
	for di, d := range densities {
		wl := buildIsectSets(n, count, d, cfg.seed(11)+int64(di))
		ops := wl.pairs()
		row := Row{MinSupport: int(d * 100), Cells: map[string]Cell{}, Closed: -1}

		passes := []struct {
			name string
			run  func() int
		}{
			{"isect-sparse", wl.sparsePass},
			{"isect-dense", wl.densePass},
			{"isect-adaptive", wl.adaptivePass},
		}
		fmt.Fprintf(w, "%-8.2f", d)
		for _, p := range passes {
			p.run() // warm-up: size arenas, fault in the operands
			wl.ker.DrainStats()
			cell, sum := measurePass(p.run, ops)
			if p.name == "isect-adaptive" {
				st := wl.ker.DrainStats()
				cell.Isects, cell.EarlyStops, cell.RepSwitches = st.Isects, st.EarlyStops, st.Switches
			}
			if row.Closed == -1 {
				row.Closed = sum
			} else if row.Closed != sum {
				return nil, fmt.Errorf("bench: isect checksum mismatch at density %.2f: %s counted %d, others %d",
					d, p.name, sum, row.Closed)
			}
			row.Cells[p.name] = cell
			fmt.Fprintf(w, "  %10.0f %11d", float64(cell.Time.Nanoseconds())/float64(ops), cell.Allocs)
		}
		fmt.Fprintf(w, "  %12d\n", row.Closed)
		rows = append(rows, row)
	}
	fmt.Fprintln(w)
	return rows, nil
}

var isectMacroAlgos = []string{"eclat-closed", "cobbler", "fpclose", "lcm"}

// runIsect is the isect experiment: the kernel micro-benchmark above,
// then the dense Bernoulli-ramp mining workload whose eclat/cobbler
// times the kernel was built to improve. The combined measurements are
// written as BENCH_10.json — the checked-in perf baseline.
func runIsect(cfg Config, w io.Writer) error {
	micro, err := runIsectMicro(cfg, w)
	if err != nil {
		return err
	}

	nTx := int(2000 * cfg.scale(1))
	db := gendata.Dense(nTx, 48, 0.30, 0.90, cfg.seed(42))
	supports := []int{nTx * 60 / 100, nTx * 50 / 100, nTx * 45 / 100}
	rows, err := Sweep(db, supports, isectMacroAlgos, cfg.timeout(60*time.Second))
	if err != nil {
		return err
	}
	WriteTable(w, "dense ramp workload (end-to-end, kernel miners vs references)", db.Stats(), isectMacroAlgos, rows)
	if ms, f, ok := Speedup(rows, "eclat-closed", "fpclose"); ok {
		if f < 1 {
			fmt.Fprintf(w, "at minsup %d: fpclose is %.1fx faster than eclat-closed\n", ms, 1/f)
		} else {
			fmt.Fprintf(w, "at minsup %d: eclat-closed is %.1fx faster than fpclose\n", ms, f)
		}
	}
	fmt.Fprintln(w)

	workload := fmt.Sprintf(
		"micro rows (min_support = density %%): pairwise kernel intersections, allocs/bytes are per op; macro rows: %s, dense ramp 0.30..0.90",
		db.Stats())
	return cfg.writeJSON(w, "10", workload,
		append(append([]string{}, isectMicroCols...), isectMacroAlgos...),
		append(micro, rows...))
}
