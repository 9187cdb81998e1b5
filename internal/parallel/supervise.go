package parallel

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/guard"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/retry"
)

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

// fanOut is the parallel engines' one supervised fan-out: it runs
// unit(w, ctl) for every worker w < spec.Workers on its own goroutine and
// then supervises the failed units. Each attempt gets a private control
// on the run's done channel and guard, feeding the run's counters (so
// worker work shows up in stats and progress), and flushes it however
// the attempt ends. Panics are contained per attempt: the pool drains
// through the WaitGroup — workers share no channels, so no goroutine can
// block forever — and a panic surfaces as a *guard.PanicError.
//
// Supervision is the degradation ladder. With the zero retry policy any
// failure aborts the run (firstError), and a deliberate stop aborts it
// even with healing on, since retrying others would only re-observe the
// latched cancellation or budget trip. Otherwise each retryable failure
// is re-run sequentially up to the policy's attempt budget. A unit that
// stays failed is abandoned into the returned per-unit report when
// degradable — the run continues over the other units and returns a
// typed partial result, or one at once when every unit is lost — and
// aborts the run when not (for units like the recount stripes, whose
// loss would break the result's exactness rather than its coverage).
// kind names the unit in events. Units must be idempotent.
func fanOut(spec *engine.Spec, kind string, degradable bool, unit func(w int, ctl *mining.Control) error) ([]engine.ShardError, error) {
	counters := spec.Control().Counters()
	attempt := func(w int) (err error) {
		defer guard.Recover(&err)
		ctl := mining.GuardedCounted(spec.Done, spec.Guard, counters)
		defer ctl.Flush()
		return unit(w, ctl)
	}
	errs := make([]error, spec.Workers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = attempt(w)
		}(w)
	}
	wg.Wait()

	policy, run := spec.Retry, spec.Observer()
	if !policy.Enabled() {
		return nil, firstError(errs)
	}
	for _, err := range errs {
		if err != nil && stops(err) {
			return nil, err
		}
	}
	var lost []engine.ShardError
	for w, err := range errs {
		for a := 1; err != nil && a <= policy.MaxAttempts; a++ {
			if !retryable(err) {
				return nil, err
			}
			if !policy.Sleep(spec.Done, a) {
				return nil, mining.ErrCanceled
			}
			counters.Add(obs.Counts{Retries: 1})
			run.Note(obs.NoteRetry, fmt.Sprintf("%s %d attempt %d after: %v", kind, w, a, err))
			err = attempt(w)
		}
		switch {
		case err == nil:
		case !degradable || !retryable(err):
			return nil, err
		default:
			counters.Add(obs.Counts{Degraded: 1})
			run.Note(obs.NoteDegrade, fmt.Sprintf("%s %d abandoned after %d retries: %v", kind, w, policy.MaxAttempts, err))
			lost = append(lost, engine.ShardError{Shard: w, Attempts: policy.MaxAttempts, Err: err})
		}
	}
	if len(lost) == len(errs) {
		// Nothing survived: there is no covered sub-database and hence no
		// valid result prefix to build.
		return nil, &engine.PartialError{Shards: lost}
	}
	return lost, nil
}
