// Package faultinject is the fault-injection harness for the guarded
// execution layer (internal/guard): misbehaving reporters, deterministic
// panic and deadline injection into the cooperative tick checks every
// miner runs under, and panic injection into prefix-tree node
// allocation — which fires inside whatever goroutine grows the tree, so
// it exercises worker-panic containment in the parallel engines.
//
// The injectors that arm global seams (PanicAtTick, DeadlineAtTick,
// PanicAtTreeNode) return a restore function. Arming and disarming the
// tick seams is race-free even while runs are active (Controls sample
// the hook atomically at construction), but deterministic injection
// still requires arming before the target run starts — a running miner's
// Controls keep the hook they sampled. The conformance suite in the
// repository root drives every algorithm through them.
package faultinject

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/itemset"
	"repro/internal/mining"
	"repro/internal/result"
)

// ReporterFault is the value a failing reporter panics with; the guarded
// layer is expected to contain it into a *guard.PanicError.
type ReporterFault struct {
	// N is the 1-based index of the report that failed.
	N int
}

func (f ReporterFault) String() string {
	return fmt.Sprintf("injected reporter fault at report %d", f.N)
}

// FailingReporter forwards to inner and panics with a ReporterFault on
// the n-th report (1-based); the inner reporter sees exactly n-1
// patterns. It simulates a downstream consumer that blows up mid-stream.
func FailingReporter(n int, inner result.Reporter) result.Reporter {
	count := 0
	return result.ReporterFunc(func(items itemset.Set, support int) {
		count++
		if count >= n {
			panic(ReporterFault{N: count})
		}
		inner.Report(items, support)
	})
}

// FlakyReporter forwards to inner but silently drops every k-th report
// (1-based; k < 1 drops nothing). It simulates a lossy consumer: miners
// must complete normally regardless of what the reporter does with the
// patterns.
func FlakyReporter(k int, inner result.Reporter) result.Reporter {
	count := 0
	return result.ReporterFunc(func(items itemset.Set, support int) {
		count++
		if k >= 1 && count%k == 0 {
			return
		}
		inner.Report(items, support)
	})
}

// TickFault is the value tick-injected panics carry.
type TickFault struct {
	// K is the global tick count at which the fault fired.
	K int64
}

func (f TickFault) String() string {
	return fmt.Sprintf("injected tick fault at tick %d", f.K)
}

// PanicAtTick arms a global fault: from the k-th cooperative tick check
// on (counted across all controls and workers of all subsequent runs),
// every check panics with a TickFault. For parallel engines the panic
// fires inside a worker goroutine, exercising worker-panic containment;
// being persistent, it also exercises retry exhaustion — a supervisor
// re-mining the failed unit keeps failing until its retries run out.
// The check amortization interval is forced to 1 so every Tick checks.
// Call the returned function to disarm.
func PanicAtTick(k int64) (restore func()) {
	restoreInterval := mining.SetCheckInterval(1)
	var ticks atomic.Int64
	restoreHook := mining.SetTickHook(func() error {
		if t := ticks.Add(1); t >= k {
			panic(TickFault{K: t})
		}
		return nil
	})
	return func() {
		restoreHook()
		restoreInterval()
	}
}

// DeadlineAtTick arms a global fault: from the k-th cooperative tick
// check on (counted across all controls and workers), every check
// reports guard.ErrDeadline — a deterministic stand-in for an expired
// wall-clock deadline, with no real clock involved. Call the returned
// function to disarm.
func DeadlineAtTick(k int64) (restore func()) {
	restoreInterval := mining.SetCheckInterval(1)
	var ticks atomic.Int64
	restoreHook := mining.SetTickHook(func() error {
		if ticks.Add(1) >= k {
			return guard.ErrDeadline
		}
		return nil
	})
	return func() {
		restoreHook()
		restoreInterval()
	}
}

// TreeFault is the value tree-allocation panics carry.
type TreeFault struct {
	// Live is the live node count at which the fault fired.
	Live int
}

func (f TreeFault) String() string {
	return fmt.Sprintf("injected tree fault at node %d", f.Live)
}

// PanicAtTreeNode arms a global fault: the allocation that brings any
// core prefix tree to n live nodes panics with a TreeFault, inside
// whichever goroutine grew the tree (a shard worker in the parallel IsTa
// engine). Call the returned function to disarm.
func PanicAtTreeNode(n int) (restore func()) {
	core.TestHookAlloc = func(live int) {
		if live >= n {
			panic(TreeFault{Live: live})
		}
	}
	return func() { core.TestHookAlloc = nil }
}

// PanicAtTreeNodeOnce is PanicAtTreeNode with a consume-once trigger:
// the first allocation (in any goroutine) reaching n live nodes panics,
// and the fault then disarms itself — a re-mined shard succeeds. It is
// the canonical "heals on retry" fault for the self-healing supervisor.
func PanicAtTreeNodeOnce(n int) (restore func()) {
	var fired atomic.Bool
	core.TestHookAlloc = func(live int) {
		if live >= n && !fired.Swap(true) {
			panic(TreeFault{Live: live})
		}
	}
	return func() { core.TestHookAlloc = nil }
}

// ErrAtTick arms a global fault: from the k-th cooperative tick check on
// (counted across all controls and workers), every check fails with an
// error wrapping ErrChaos. It is an ordinary worker error, not a panic,
// so a supervisor aborts the run on it instead of re-mining. Call the
// returned function to disarm.
func ErrAtTick(k int64) (restore func()) {
	restoreInterval := mining.SetCheckInterval(1)
	var ticks atomic.Int64
	restoreHook := mining.SetTickHook(func() error {
		if t := ticks.Add(1); t >= k {
			return fmt.Errorf("injected fault at tick %d: %w", t, ErrChaos)
		}
		return nil
	})
	return func() {
		restoreHook()
		restoreInterval()
	}
}
