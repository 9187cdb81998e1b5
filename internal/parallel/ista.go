package parallel

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/prep"
	"repro/internal/result"
	"repro/internal/tidset"
	"repro/internal/txdb"
)

// splitByWork cuts the prepared database into workers contiguous zero-copy
// range views with roughly equal total item counts (the work a cumulative
// intersection pass is proportional to). Contiguous views share the
// prepared columns — no per-shard transaction copying — and because the
// merge phase is order-insensitive, balancing by work instead of
// round-robin row dealing changes nothing about the result.
func splitByWork(db *txdb.DB, workers int) []*txdb.DB {
	n := db.NumTx()
	total := db.NumIds()
	shards := make([]*txdb.DB, workers)
	lo := 0
	acc := 0
	for w := 0; w < workers; w++ {
		// Cut when the running item count reaches the w+1-th share.
		target := (total * (w + 1)) / workers
		hi := lo
		for hi < n && (acc < target || w == workers-1) {
			acc += db.Len(hi)
			hi++
		}
		shards[w] = db.Slice(lo, hi)
		lo = hi
	}
	return shards
}

// minePreparedIsTa is the sharded IsTa engine on an already preprocessed
// database, fanned out across spec.Workers (≥ 2) workers. The reported
// pattern set is identical to the sequential "ista" registration's; the
// emission order is deterministic but differs from the sequential
// traversal order. spec.Retry, when enabled, supervises failed shards
// (sequential re-mines, then degradation to a typed partial result), and
// the merge phase is reported as a span to spec.Observer().
func minePreparedIsTa(pre *prep.Prepared, spec *engine.Spec, rep result.Reporter) error {
	minsup, workers, ctl := spec.MinSupport, spec.Workers, spec.Control()
	pdb := pre.DB
	if err := ctl.Tick(); err != nil {
		return err
	}

	// Phase 1: cut the prepared transactions into contiguous zero-copy
	// range views balanced by work and mine every shard with a private
	// tree. A globally frequent set X has shard support (weight) at least
	// minsup - (W - W_i) — the other shards can contribute at most their
	// total weight — so each shard may mine (and prune) at that floor; it
	// degrades to 1 on many-transaction workloads, where no shard-local
	// threshold above 1 is sound. The guard's node budget bounds each
	// shard's private tree. A shard lost to supervision is set to nil.
	shards := splitByWork(pdb, workers)
	patterns := make([][]result.Pattern, workers) // shard-closed sets, prepared codes
	lost, err := fanOut(spec, "shard", true, func(w int, wctl *mining.Control) error {
		floor := max(minsup-(pdb.TotalWeight()-shards[w].TotalWeight()), 1)
		tree, err := core.Intersect(shards[w], floor, floor > 1, wctl)
		if err != nil {
			return err
		}
		patterns[w] = nil // a retried shard starts over
		tree.Report(floor, func(s itemset.Set, supp int) {
			patterns[w] = append(patterns[w], result.Pattern{Items: s, Support: supp})
		})
		if tree.Aborted() {
			return wctl.Cause()
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, se := range lost {
		shards[se.Shard] = nil
	}
	mergeStart := time.Now()

	// Phase 2: build the merge tree. Every closed set of the full
	// database is an intersection of shard-closed sets (one per shard
	// that covers it), and replaying the shard results through the
	// cumulative intersection pass creates a node for every such
	// intersection. Node supports are NOT exact — the weighted replay
	// sums shard supports, which overlap between nested closed sets of
	// the same shard — but they over-count: a node's weighted support is
	// at least the set's true support, so pruning the merge tree at
	// minsup (with remain counts in replay weights) is sound and keeps
	// the pass tractable; the surviving nodes are still a complete
	// closure-candidate family for the frequent closed sets. The replay is
	// a weighted database run through the same pass loop: identical sets
	// from different shards are folded into one row by summing their
	// weights — exactly equivalent to replaying both — and the rows come
	// in ascending set size, the fast order of §3.4.
	// A shard whose closed-set count exceeds its row count gained
	// nothing from closure "compression" (common on sparse basket data);
	// replaying its raw rows at their own weights is cheaper and its
	// contribution to every node's weighted support becomes exact —
	// cl_i(X) is then itself an intersection of replayed transactions, so
	// candidate completeness is unaffected.
	var replay []result.Pattern
	for w, shard := range shards {
		if shard == nil {
			continue
		}
		if len(patterns[w]) < shard.NumTx() {
			replay = append(replay, patterns[w]...)
			continue
		}
		for k, n := 0, shard.NumTx(); k < n; k++ {
			replay = append(replay, result.Pattern{Items: shard.Tx(k), Support: shard.Weight(k)})
		}
	}
	sort.Slice(replay, func(i, j int) bool {
		return itemset.Compare(replay[i].Items, replay[j].Items) < 0
	})
	b := txdb.NewBuilder(len(replay), 0)
	b.SetNumItems(pdb.NumItems())
	for i := 0; i < len(replay); {
		s, weight := replay[i].Items, 0
		for ; i < len(replay) && itemset.Compare(replay[i].Items, s) == 0; i++ {
			weight += replay[i].Support
		}
		b.AddWeighted(s, weight)
	}
	mtree, err := core.Intersect(b.Build(), minsup, true, ctl)
	if err != nil {
		return err
	}
	var cands []itemset.Set
	mtree.Walk(func(s itemset.Set, _ int) {
		cands = append(cands, s)
	})
	if mtree.Aborted() {
		return ctl.Cause()
	}

	// Phase 3: recompute every candidate's support exactly against the
	// covered transactions (vertical tid-list intersection with an early
	// exit once the running weight drops below minsup), fanned out across
	// the workers again. Candidates are fixed before the fan-out and
	// results land in a preallocated slice, so scheduling cannot affect
	// the outcome. In a degraded run the count database holds only the
	// surviving shards' rows (rebuilt through the builder, weights and
	// all), so every computed support is exact over the covered
	// sub-database — a lower bound on the true support. Recount stripes
	// are retried but never degraded: dropping one would leave candidate
	// supports unknown, breaking the exactness the closedness filter
	// depends on.
	countDB := pdb
	if len(lost) > 0 {
		b := txdb.NewBuilder(0, 0)
		b.SetNumItems(pdb.NumItems())
		for _, shard := range shards {
			for k := 0; shard != nil && k < shard.NumTx(); k++ {
				b.AddWeighted(shard.Tx(k), shard.Weight(k))
			}
		}
		countDB = b.Build()
	}
	supp := make([]int, len(cands))
	if _, err := fanOut(spec, "recount stripe", false, func(w int, wctl *mining.Control) error {
		return countStripe(countDB, cands, supp, w, workers, minsup, wctl)
	}); err != nil {
		return err
	}

	// Phase 4: drop infrequent candidates and filter out the non-closed
	// ones: a candidate is closed iff no candidate strict superset has the
	// same (exact) support, and the closure of every frequent candidate is
	// itself a frequent candidate, so the same-support subsumption filter
	// leaves exactly the closed frequent sets.
	filt := result.NewSubsumeFilter()
	for i, s := range cands {
		if supp[i] >= minsup {
			filt.Add(s, supp[i])
		}
	}
	if err := ctl.Tick(); err != nil {
		return err
	}
	filt.Emit(result.ReporterFunc(func(s itemset.Set, support int) {
		rep.Report(pre.DecodeSet(s), support)
	}))
	spec.Observer().Span(obs.PhaseMerge, mergeStart)
	if len(lost) > 0 {
		// Everything reported above is valid — closed in the full database
		// (each pattern is an intersection of covered transactions) with
		// exact covered-sub-database support — but coverage is partial.
		return &engine.PartialError{Shards: lost}
	}
	return nil
}

// countStripe recomputes the exact supports of the candidates assigned
// to worker stripe w (every workers-th candidate starting at w) against
// db's vertical view. Re-running a stripe is idempotent — supports land
// in preassigned slots — which is what lets the supervisor retry it.
func countStripe(db *txdb.DB, cands []itemset.Set, supp []int, w, workers, minsup int, ctl *mining.Control) error {
	sets := db.KernelSets()
	// A flat kernel (no diffset results) because the ping-pong hold slots
	// below give intermediate sets no stable parent storage; its level-0
	// arena is reset per candidate, so a stripe recounts allocation-free.
	ker := tidset.NewFlatKernel(db.KernelUniverse())
	var hold [2]tidset.Set
	for i := w; i < len(cands); i += workers {
		if err := ctl.Tick(); err != nil {
			return err
		}
		ctl.CountOps(1) // one exact candidate recount
		supp[i] = countSupport(ker, sets, cands[i], minsup, &hold)
		st := ker.DrainStats()
		ctl.CountKernel(st.Isects, st.EarlyStops, st.Switches)
	}
	return nil
}

// countSupport returns the exact weighted support of items in the
// kernel's database (sets are its per-item base sets), or 0 if it cannot
// reach minsup — the kernel's early-stopping bound is exact, so every
// abandoned intersection is genuinely below threshold and every value
// below minsup is equivalent for the caller. Intermediate sets ping-pong
// through hold; storage comes from the kernel's level-0 arena, reset here
// per call, so repeated calls do not allocate.
func countSupport(ker *tidset.Kernel, sets []tidset.Set, items itemset.Set, minsup int, hold *[2]tidset.Set) int {
	ar := ker.Level(0)
	ar.Reset()
	cur := &sets[items[0]] // borrowed; never written
	next := 0              // hold slot for the upcoming intersection
	for _, it := range items[1:] {
		res, ok := ker.Intersect(ar, cur, &sets[it], minsup)
		if !ok {
			return 0
		}
		hold[next] = res
		cur = &hold[next]
		next = 1 - next
	}
	if w := cur.Support(); w >= minsup {
		return w
	}
	return 0
}
