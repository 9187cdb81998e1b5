// Package mining holds the small pieces of machinery shared by every
// miner: cooperative cancellation (so the bench harness can cut off the
// enumeration baselines exactly where the paper's plots do), resource
// guards (internal/guard budgets threaded through the same tick checks),
// and the common error values.
package mining

import (
	"errors"
	"sync/atomic"

	"repro/internal/guard"
	"repro/internal/obs"
)

// ErrCanceled is returned by a miner whose run was canceled through its
// Done channel. Partial results already reported remain valid patterns but
// the result set is incomplete.
var ErrCanceled = errors.New("mining: canceled")

// checkInterval balances cancellation latency against overhead; the check
// is a single atomic-free counter decrement in the common case. It is a
// variable only for the fault-injection test seam (SetCheckInterval).
var checkInterval = 4096

// SetCheckInterval overrides the amortization interval of all Controls
// created afterwards (and of existing Controls at their next budget
// reset) and returns a function restoring the previous value. It exists
// for deterministic fault-injection tests (internal/faultinject) and must
// only be called while no mining run is active.
func SetCheckInterval(n int) (restore func()) {
	if n < 1 {
		n = 1
	}
	prev := checkInterval
	checkInterval = n
	return func() { checkInterval = prev }
}

// tickHook is the process-global fault-injection seam (a successor to
// the former TickHook package variable, whose unguarded writes raced
// with worker reads). Controls sample it once at construction with an
// atomic load, so installing or removing a hook is safe even while runs
// are active: Controls created afterwards see the new hook, existing
// ones keep the one they sampled, and nothing tears.
var tickHook atomic.Pointer[func() error]

// SetTickHook installs h as the tick hook of every Control created
// afterwards and returns a function restoring the previous hook. The
// hook is invoked on each amortized tick check of those Controls: a
// non-nil error return latches into the Control and aborts its run, and
// a panic propagates into the mining code exactly like a real in-worker
// fault. It is a fault-injection seam (internal/faultinject); h must be
// safe for concurrent calls from worker goroutines.
func SetTickHook(h func() error) (restore func()) {
	var p *func() error
	if h != nil {
		p = &h
	}
	prev := tickHook.Swap(p)
	return func() { tickHook.Store(prev) }
}

// Control performs cheap cooperative cancellation and budget checks
// inside mining loops. The zero value (or a nil *Control) never cancels.
// A Control is not safe for concurrent use; give each worker goroutine
// its own Control on the same done channel and shared Guard (and,
// optionally, shared obs.Counters).
type Control struct {
	done     <-chan struct{}
	guard    *guard.Guard
	counters *obs.Counters
	hook     func() error // per-Control tick hook, sampled from tickHook
	budget   int
	pending  obs.Counts // counts not yet flushed to counters
	err      error      // latched: once failed, every check reports this error
}

// NewControl returns a Control watching done; done may be nil. The first
// Tick polls the channel immediately (so a run that was canceled before it
// started stops on the very first check); later polls are amortized over
// checkInterval calls.
func NewControl(done <-chan struct{}) *Control {
	return GuardedCounted(done, nil, nil)
}

// GuardedCounted returns a Control watching done, enforcing g's budget
// (deadline and latched resource trips) on the same amortized schedule,
// and feeding an optional shared Counters on its slow path (engine stats,
// progress sampling). All arguments may be nil.
func GuardedCounted(done <-chan struct{}, g *guard.Guard, c *obs.Counters) *Control {
	ctl := &Control{done: done, guard: g, counters: c, budget: 1}
	if p := tickHook.Load(); p != nil {
		ctl.hook = *p
	}
	return ctl
}

// Counters returns the shared Counters this Control feeds (nil when none
// is attached). Parallel engines use it to hand every worker's private
// Control the same Counters, so per-worker work lands in the run's
// stats and progress snapshots.
func (c *Control) Counters() *obs.Counters {
	if c == nil {
		return nil
	}
	return c.counters
}

// CountOps records n algorithm work units (intersections, extension
// tests). The units accumulate in a Control-local counter and are flushed
// to the shared Counters on the next amortized check or Flush, so the
// call is a plain add on the hot path.
func (c *Control) CountOps(n int) {
	if c == nil || c.counters == nil {
		return
	}
	c.pending.Ops += int64(n)
}

// CountKernel records drained tid-set kernel statistics (intersections,
// early stops, representation switches). Like CountOps, the counts
// accumulate Control-locally and reach the shared Counters only on the
// amortized slow path, keeping kernel draining off the atomic bus.
func (c *Control) CountKernel(isects, earlyStops, switches int64) {
	if c == nil || c.counters == nil {
		return
	}
	c.pending.Isects += isects
	c.pending.EarlyStops += earlyStops
	c.pending.RepSwitches += switches
}

// CountNodes records n as a candidate repository peak (nodes_peak) for
// repositories outside the guard's node budget (the enumeration
// miners' closed-set stores). Unlike PollNodes it never checks or trips
// MaxTreeNodes, and like CountOps it stays Control-local until the next
// amortized check or Flush.
func (c *Control) CountNodes(n int) {
	if c == nil || c.counters == nil {
		return
	}
	c.pending.NodesPeak = max(c.pending.NodesPeak, int64(n))
}

// Flush pushes any unflushed counter state to the shared Counters. The
// engine calls it once after a run; miners never need to.
func (c *Control) Flush() {
	if c == nil || c.counters == nil {
		return
	}
	c.counters.Add(c.pending)
	c.pending = obs.Counts{}
}

// Tick must be called periodically from mining inner loops. It returns
// ErrCanceled once done is closed, or the guard's typed error
// (guard.ErrDeadline, guard.ErrBudget) once the budget trips — possibly
// up to checkInterval calls late. Failure latches: after the first error
// every subsequent call reports it immediately, so callers that keep
// polling cannot resume mining past a cancellation.
func (c *Control) Tick() error {
	if c == nil || (c.done == nil && c.guard == nil && c.counters == nil && c.hook == nil) {
		return nil
	}
	if c.err != nil {
		return c.err
	}
	c.budget--
	if c.budget > 0 {
		return nil
	}
	c.budget = checkInterval
	return c.check()
}

// check is the slow path of Tick: counter flush, fault-injection hook,
// guard deadline, done channel, progress observer, in that order (so a
// simultaneous deadline and cancellation deterministically reports the
// deadline, and a stopping Control emits no further progress).
func (c *Control) check() error {
	if c.counters != nil {
		c.pending.Checks++
		c.Flush()
	}
	if c.hook != nil {
		if err := c.hook(); err != nil {
			c.err = err
			return err
		}
	}
	if err := c.guard.Check(); err != nil {
		c.err = err
		return err
	}
	if c.done != nil {
		select {
		case <-c.done:
			c.err = ErrCanceled
			return c.err
		default:
		}
	}
	if c.counters != nil && c.counters.OnCheck != nil {
		c.counters.OnCheck()
	}
	return nil
}

// Canceled reports whether the run must stop, checking immediately: the
// done channel, the guard's deadline, and any latched error. Like Tick,
// the result latches. It is the probe miners install into long tree
// passes (core.Tree.SetCancel).
func (c *Control) Canceled() bool {
	if c == nil {
		return false
	}
	if c.err != nil {
		return true
	}
	if err := c.guard.Check(); err != nil {
		c.err = err
		return true
	}
	if c.done != nil {
		select {
		case <-c.done:
			c.err = ErrCanceled
			return true
		default:
		}
	}
	return false
}

// PollNodes checks a repository size against the guard's node budget and
// latches (and returns) the budget error when it is exceeded. With no
// guard it always returns nil. The size is also recorded as a repository
// peak when counters are attached, budget or not.
func (c *Control) PollNodes(n int) error {
	if c == nil {
		return nil
	}
	c.counters.Add(obs.Counts{NodesPeak: int64(n)})
	if c.guard == nil {
		return nil
	}
	if c.err != nil {
		return c.err
	}
	if err := c.guard.PollNodes(n); err != nil {
		c.err = err
		return err
	}
	return nil
}

// Cause returns the latched error of a failed Control — the reason a
// probe (Canceled) fired. Callers that observe an abort through a
// boolean channel (e.g. core.Tree.Aborted) use it to surface the typed
// error instead of a generic cancellation. It returns ErrCanceled if the
// control never latched (a conservative default for abandoned runs).
func (c *Control) Cause() error {
	if c == nil || c.err == nil {
		return ErrCanceled
	}
	return c.err
}
