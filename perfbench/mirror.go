package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	fim "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/itemset"
	"repro/internal/prep"
)

// IsTa has no spans of its own yet, so the traced run splits core's time
// by driving the exported pieces of the miner in the order the ista
// engine runs them: prep.Prepare with the engine's declared
// configuration, then core.Tree.AddWeighted per transaction, Prune and
// Compact when the tree has grown, and Report.
//
// pruneMinNodes and the growth rule in mirrorIsTa restate the prune
// trigger of core's miner. The drift check (mirrorOut.agrees and
// mirrorTolerance) turns a later change to that trigger, or to what a
// pass costs, into a failed traced run instead of a silently wrong split.
const pruneMinNodes = 4096

// mirrorTolerance bounds |mirror time / engine.mine_ms − 1| (medians).
// The mirror skips only the engine's cancellation and counter polls.
const mirrorTolerance = 0.25

// mirrorOut is one mirrored IsTa run.
type mirrorOut struct {
	isect, prune, compact, report time.Duration
	created, peak, passes         int
	released, beforePrune         int
	digest                        digest
}

func (m mirrorOut) total() time.Duration { return m.isect + m.prune + m.compact + m.report }

// mirrorIsTa mines input at minsup through core.Tree, timing each pass
// kind in spans under op.
func mirrorIsTa(input []byte, minsup int, tr *tracer, op int) (mirrorOut, error) {
	var m mirrorOut
	db, err := fim.Read(bytes.NewReader(input))
	if err != nil {
		return m, fmt.Errorf("read: %w", err)
	}
	reg, ok := engine.Lookup(string(fim.IsTa))
	if !ok {
		return m, fmt.Errorf("engine %q not registered", fim.IsTa)
	}
	root := tr.begin("core.mirror", 0, op)
	defer tr.end(root)
	pre := prep.Prepare(db, minsup, reg.Prep)
	pdb := pre.DB
	remain := append([]int(nil), pre.Freq...)
	tree := core.NewTree(pdb.NumItems())

	last := 0
	sp := tr.begin("core.isect", root, op)
	for k, n := 0, pdb.NumTx(); k < n; k++ {
		t, w := pdb.Tx(k), pdb.Weight(k)
		before := tree.NodeCount()
		tree.AddWeighted(t, w)
		nodes := tree.NodeCount()
		m.created += nodes - before
		m.peak = max(m.peak, nodes)
		for _, i := range t {
			remain[i] -= w
		}
		if nodes >= pruneMinNodes && nodes >= last+last/8 {
			m.isect += tr.end(sp)
			p := tr.begin("core.prune", root, op)
			tree.Prune(remain, minsup)
			m.prune += tr.end(p)
			m.passes++
			m.beforePrune += nodes
			m.released += nodes - tree.NodeCount()
			c := tr.begin("core.compact", root, op)
			tree.Compact()
			m.compact += tr.end(c)
			last = tree.NodeCount()
			sp = tr.begin("core.isect", root, op)
		}
	}
	m.isect += tr.end(sp)

	sp = tr.begin("core.report", root, op)
	var buf []byte
	items := make([]int, 0, 64)
	tree.Report(minsup, func(s itemset.Set, support int) {
		items = items[:0]
		for _, it := range pre.DecodeSet(s) {
			items = append(items, int(it))
		}
		buf = m.digest.add(items, support, buf)
	})
	m.report = tr.end(sp)
	return m, nil
}

// agrees checks a mirrored run against the engine's run on the same
// input: the same closed sets, and the same peak tree size, which moves
// as soon as the prune trigger differs.
func (m mirrorOut) agrees(engineOut digest, st fim.MiningStats) error {
	if m.digest != engineOut {
		return fmt.Errorf("closed sets differ from the ista engine: mirror %d patterns digest %x, engine %d digest %x",
			m.digest.N, m.digest.Sum, engineOut.N, engineOut.Sum)
	}
	if int64(m.peak) != st.NodesPeak {
		return fmt.Errorf("peak tree size %d differs from the engine's %d: the prune trigger changed, the core split is stale",
			m.peak, st.NodesPeak)
	}
	return nil
}

// perLayerCore fills the core metrics from mirrored runs and checks that
// the mirror's time stays within mirrorTolerance of engine.mine_ms.
func (o *outcome) perLayerCore(jobs []jobTrace, mirrors []mirrorOut) {
	if len(mirrors) == 0 {
		return
	}
	var isect, prune, compact, report, created, peak, passes, total, mine []float64
	var released, before float64
	for _, m := range mirrors {
		isect = append(isect, ms(m.isect))
		prune = append(prune, ms(m.prune))
		compact = append(compact, ms(m.compact))
		report = append(report, ms(m.report))
		created = append(created, float64(m.created))
		peak = append(peak, float64(m.peak))
		passes = append(passes, float64(m.passes))
		total = append(total, ms(m.total()))
		released += float64(m.released)
		before += float64(m.beforePrune)
	}
	for _, j := range jobs {
		mine = append(mine, ms(j.stats.MineTime))
	}
	v := o.vals
	v["core.isect_ms"] = median(isect)
	v["core.prune_ms"] = median(prune)
	v["core.compact_ms"] = median(compact)
	v["core.report_ms"] = median(report)
	v["core.nodes_created"] = median(created)
	v["core.nodes_peak"] = median(peak)
	v["core.prune_passes"] = median(passes)
	v["core.prune_release_ratio"] = ratio(released, before)
	if drift := median(total)/median(mine) - 1; math.Abs(drift) > mirrorTolerance {
		o.s.fail("core mirror takes %.1f ms against engine.mine_ms %.1f ms (%+.0f%%, tolerance ±%.0f%%): the core split is stale",
			median(total), median(mine), drift*100, mirrorTolerance*100)
	}
}
