package parallel

import (
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/guard"
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
// database. The reported pattern set is identical to the sequential
// "ista" registration's; the emission order is deterministic but differs
// from the sequential traversal order. cfg.done/cfg.g are needed separately from cfg.ctl because
// each worker builds a private control on them (sharing ctl's Counters,
// so worker work shows up in the run's stats and progress); cfg.run,
// when non-nil, receives the merge-phase span; cfg.policy, when
// enabled, supervises failed shards (sequential re-mines, then
// degradation to a typed partial result).
func minePreparedIsTa(pre *prep.Prepared, cfg runCfg, rep result.Reporter) error {
	minsup, workers := cfg.minsup, cfg.workers
	done, g, ctl, run := cfg.done, cfg.g, cfg.ctl, cfg.run
	pdb := pre.DB
	if pdb.NumItems() == 0 {
		return nil
	}
	if err := ctl.Tick(); err != nil {
		return err
	}

	// Phase 1: cut the prepared transactions into contiguous zero-copy
	// range views balanced by work and mine every shard with a private
	// tree. A globally frequent set X has shard support (weight) at least
	// minsup - (W - W_i) — the other shards can contribute at most their
	// total weight — so each shard may mine (and prune) at that floor; it
	// degrades to 1 on many-transaction workloads, where no shard-local
	// threshold above 1 is sound.
	totalW := pdb.TotalWeight()
	counters := ctl.Counters()
	shards := splitByWork(pdb, workers)
	patterns := make([][]result.Pattern, workers) // shard-closed sets, prepared codes
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Contain panics: a crashing worker must not take down the
			// process. The pool drains through the WaitGroup — workers
			// share no channels, so no goroutine can block forever — and
			// the panic surfaces as a *guard.PanicError from firstError.
			defer guard.Recover(&errs[w])
			floor := minsup - (totalW - shards[w].TotalWeight())
			if floor < 1 {
				floor = 1
			}
			patterns[w], errs[w] = mineShard(shards[w], floor, done, g, counters)
		}(w)
	}
	wg.Wait()

	// Supervision (the degradation ladder): re-mine each failed shard
	// sequentially per the retry policy; a shard that stays failed is
	// abandoned and the run continues over the covered shards only,
	// returning a typed partial result at the end. With the zero policy
	// any failure aborts the run exactly as before (panic containment
	// first, then first worker order). A deliberate stop anywhere aborts
	// even with healing on — retrying others would only re-observe the
	// latched cancellation or budget trip.
	if !cfg.policy.Enabled() {
		if err := firstError(errs); err != nil {
			return err
		}
	}
	for _, err := range errs {
		if err != nil && stops(err) {
			return err
		}
	}
	covered := make([]bool, workers)
	for w := range covered {
		covered[w] = errs[w] == nil
	}
	var shardErrs []engine.ShardError
	for w := 0; w < workers; w++ {
		if errs[w] == nil {
			continue
		}
		healed, serr, stop := cfg.supervise("shard", w, true, errs[w], func() (err error) {
			defer guard.Recover(&err)
			floor := minsup - (totalW - shards[w].TotalWeight())
			if floor < 1 {
				floor = 1
			}
			var e error
			patterns[w], e = mineShard(shards[w], floor, done, g, counters)
			if err == nil {
				err = e
			}
			return err
		})
		switch {
		case stop != nil:
			return stop
		case healed:
			covered[w] = true
		default:
			shardErrs = append(shardErrs, *serr)
		}
	}
	if len(shardErrs) == workers {
		// Nothing survived: no covered sub-database exists, so there is no
		// valid result prefix to build. Report the loss without touching
		// the merge phases.
		return &engine.PartialError{Shards: shardErrs}
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
	// closure-candidate family for the frequent closed sets. Identical
	// sets from different shards are combined up front by summing their
	// weights — exactly equivalent to replaying both — and the replay
	// runs in ascending set size, the fast order of §3.4.
	// A shard whose closed-set count exceeds its row count gained
	// nothing from closure "compression" (common on sparse basket data);
	// replaying its raw rows at their own weights is cheaper and its
	// contribution to every node's weighted support becomes exact —
	// cl_i(X) is then itself an intersection of replayed transactions, so
	// candidate completeness is unaffected.
	type wpat struct {
		items  itemset.Set
		weight int
	}
	index := make(map[string]int)
	var replay []wpat
	addReplay := func(s itemset.Set, weight int) {
		k := s.Key()
		if i, ok := index[k]; ok {
			replay[i].weight += weight
		} else {
			index[k] = len(replay)
			replay = append(replay, wpat{s, weight})
		}
	}
	for w, shard := range patterns {
		if !covered[w] {
			continue
		}
		if len(shard) >= shards[w].NumTx() {
			for k, n := 0, shards[w].NumTx(); k < n; k++ {
				addReplay(shards[w].Tx(k), shards[w].Weight(k))
			}
			continue
		}
		for _, p := range shard {
			addReplay(p.Items, p.Support)
		}
	}
	sort.Slice(replay, func(i, j int) bool {
		if len(replay[i].items) != len(replay[j].items) {
			return len(replay[i].items) < len(replay[j].items)
		}
		return itemset.Compare(replay[i].items, replay[j].items) < 0
	})
	remain := make([]int, pdb.NumItems())
	for _, p := range replay {
		for _, it := range p.items {
			remain[it] += p.weight
		}
	}
	mtree := core.NewTree(pdb.NumItems())
	mtree.SetCancel(func() bool {
		return ctl.PollNodes(mtree.NodeCount()) != nil || ctl.Canceled()
	})
	for _, p := range replay {
		if err := ctl.Tick(); err != nil {
			return err
		}
		ctl.CountOps(1) // one weighted replay insertion
		mtree.AddWeighted(p.items, p.weight)
		if mtree.Aborted() {
			return ctl.Cause()
		}
		if err := ctl.PollNodes(mtree.NodeCount()); err != nil {
			return err
		}
		for _, it := range p.items {
			remain[it] -= p.weight
		}
		mtree.Maintain(remain, minsup)
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
	// sub-database — a lower bound on the true support.
	countDB := pdb
	if len(shardErrs) > 0 {
		b := txdb.NewBuilder(0, 0)
		b.SetNumItems(pdb.NumItems())
		for w := range shards {
			if !covered[w] {
				continue
			}
			for k, n := 0, shards[w].NumTx(); k < n; k++ {
				b.AddWeighted(shards[w].Tx(k), shards[w].Weight(k))
			}
		}
		countDB = b.Build()
	}
	supp := make([]int, len(cands))
	countErrs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer guard.Recover(&countErrs[w])
			countErrs[w] = countStripe(countDB, cands, supp, w, workers, minsup, done, g, counters)
		}(w)
	}
	wg.Wait()
	// Recount failures are retried sequentially too, but never degraded:
	// dropping a recount stripe would leave candidate supports unknown,
	// breaking the exactness the closedness filter depends on, so a
	// stripe that stays failed aborts the run.
	for w := 0; w < workers; w++ {
		if countErrs[w] == nil {
			continue
		}
		healed, _, stop := cfg.supervise("recount stripe", w, false, countErrs[w], func() (err error) {
			defer guard.Recover(&err)
			if e := countStripe(countDB, cands, supp, w, workers, minsup, done, g, counters); err == nil {
				err = e
			}
			return err
		})
		if !healed {
			return stop
		}
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
	run.Span(obs.PhaseMerge, mergeStart)
	if len(shardErrs) > 0 {
		// Everything reported above is valid — closed in the full database
		// (each pattern is an intersection of covered transactions) with
		// exact covered-sub-database support — but coverage is partial.
		return &engine.PartialError{Shards: shardErrs}
	}
	return nil
}

// countStripe recomputes the exact supports of the candidates assigned
// to worker stripe w (every workers-th candidate starting at w) against
// db's vertical view. Re-running a stripe is idempotent — supports land
// in preassigned slots — which is what lets the supervisor retry it.
func countStripe(db *txdb.DB, cands []itemset.Set, supp []int, w, workers, minsup int, done <-chan struct{}, g *guard.Guard, counters *obs.Counters) error {
	wctl := mining.GuardedCounted(done, g, counters)
	sets := db.KernelSets()
	// A flat kernel (no diffset results) because the ping-pong hold slots
	// below give intermediate sets no stable parent storage; its level-0
	// arena is reset per candidate, so a stripe recounts allocation-free.
	ker := tidset.NewFlatKernel(db.KernelUniverse())
	var hold [2]tidset.Set
	for i := w; i < len(cands); i += workers {
		if err := wctl.Tick(); err != nil {
			return err
		}
		wctl.CountOps(1) // one exact candidate recount
		supp[i] = countSupport(ker, sets, cands[i], minsup, &hold)
		st := ker.DrainStats()
		wctl.CountKernel(st.Isects, st.EarlyStops, st.Switches)
	}
	wctl.Flush()
	return nil
}

// mineShard runs the cumulative intersection scheme over one shard view
// and returns its closed sets with shard support at least minsup (the
// sound shard-local floor computed by the caller) in prepared item codes.
// When the floor exceeds 1 the standard item-elimination pruning applies
// shard-locally. The guard's node budget bounds this shard's private
// tree; the shared counters (may be nil) receive this shard's ops and
// checkpoint counts.
func mineShard(shard *txdb.DB, minsup int, done <-chan struct{}, g *guard.Guard, counters *obs.Counters) ([]result.Pattern, error) {
	ctl := mining.GuardedCounted(done, g, counters)
	items := shard.NumItems()
	n := shard.NumTx()
	tree := core.NewTree(items)
	tree.SetCancel(func() bool {
		return ctl.PollNodes(tree.NodeCount()) != nil || ctl.Canceled()
	})
	var remain []int
	if minsup > 1 {
		remain = make([]int, items)
		for k := 0; k < n; k++ {
			w := shard.Weight(k)
			for _, it := range shard.Tx(k) {
				remain[it] += w
			}
		}
	}
	for k := 0; k < n; k++ {
		t := shard.Tx(k)
		w := shard.Weight(k)
		if err := ctl.Tick(); err != nil {
			return nil, err
		}
		ctl.CountOps(1) // one cumulative intersection pass per transaction
		tree.AddWeighted(t, w)
		if tree.Aborted() {
			return nil, ctl.Cause()
		}
		if err := ctl.PollNodes(tree.NodeCount()); err != nil {
			return nil, err
		}
		if remain == nil {
			continue
		}
		for _, it := range t {
			remain[it] -= w
		}
		tree.Maintain(remain, minsup)
	}
	var out []result.Pattern
	tree.Report(minsup, func(s itemset.Set, supp int) {
		out = append(out, result.Pattern{Items: s, Support: supp})
	})
	if tree.Aborted() {
		return nil, ctl.Cause()
	}
	ctl.Flush()
	return out, nil
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
