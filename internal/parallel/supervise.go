package parallel

import (
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/guard"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/retry"
)

// runCfg bundles the run context both parallel engines thread through
// their phases: the resolved support and worker count, the cancellation
// and budget machinery, the observation handle, and the retry policy of
// the self-healing supervisor (zero policy = fail-stop, today's
// behavior).
type runCfg struct {
	minsup  int
	workers int
	done    <-chan struct{}
	g       *guard.Guard
	ctl     *mining.Control
	run     *obs.Run
	policy  retry.Policy
}

// stops reports whether err is a deliberate stop — cooperative
// cancellation or a tripped guard budget. Stops abort the run and are
// never retried: the failure is the caller's own request, not a fault.
func stops(err error) bool {
	return errors.Is(err, mining.ErrCanceled) ||
		errors.Is(err, guard.ErrDeadline) ||
		errors.Is(err, guard.ErrBudget)
}

// retryable reports whether a worker failure is worth re-attempting:
// contained panics (the fault may be input-order- or timing-dependent)
// and errors classified transient. Stops and unclassified errors are
// permanent.
func retryable(err error) bool {
	if stops(err) {
		return false
	}
	var pe *guard.PanicError
	if errors.As(err, &pe) {
		return true
	}
	return retry.IsTransient(err)
}

// supervise is the degradation ladder for one failed work unit (a shard
// or a worker's branch group): re-run it sequentially up to the
// policy's attempt budget. kind names the unit in events; degradable
// selects what exhaustion means — abandon the unit into a typed
// per-unit report (the run continues and returns a partial result), or
// abort the whole run (for units like the recount stripes, whose loss
// would break the result's exactness rather than just its coverage).
//
// It returns exactly one of three outcomes: healed (the unit's result
// is valid again), a *engine.ShardError (the unit is abandoned and the
// run degrades), or a stop error that must abort the whole run — the
// failure was a deliberate stop, an unclassified permanent error, the
// policy is disabled, or a non-degradable unit exhausted its attempts.
func (c *runCfg) supervise(kind string, unit int, degradable bool, firstErr error, attempt func() error) (healed bool, serr *engine.ShardError, stop error) {
	if !c.policy.Enabled() || !retryable(firstErr) {
		return false, nil, firstErr
	}
	counters := c.ctl.Counters()
	err := firstErr
	for a := 1; a <= c.policy.MaxAttempts; a++ {
		if !c.policy.Sleep(c.done, a) {
			return false, nil, mining.ErrCanceled
		}
		counters.Add(obs.Counts{Retries: 1})
		c.run.Note(obs.NoteRetry, fmt.Sprintf("%s %d attempt %d after: %v", kind, unit, a, err))
		if err = attempt(); err == nil {
			return true, nil, nil
		}
		if stops(err) || !retryable(err) {
			return false, nil, err
		}
	}
	if !degradable {
		return false, nil, err
	}
	counters.Add(obs.Counts{Degraded: 1})
	c.run.Note(obs.NoteDegrade, fmt.Sprintf("%s %d abandoned after %d retries: %v", kind, unit, c.policy.MaxAttempts, err))
	return false, &engine.ShardError{Shard: unit, Attempts: c.policy.MaxAttempts, Err: err}, nil
}
