// Package guard is the resource-guard layer every miner runs under: a
// Budget bounds a mining run by wall-clock deadline, number of reported
// patterns, and repository size, and a Guard enforces it cooperatively
// through the tick checks of internal/mining.Control.
//
// Exceeding a bound never corrupts the run: mining stops at the next
// cooperative check, the patterns already reported form a valid prefix of
// the full result (every reported pattern is a genuinely closed frequent
// item set with its exact support — miners only report fully computed
// patterns), and the run returns a typed error (ErrDeadline or ErrBudget)
// identifying which bound fired. This is the anytime contract of
// cumulative intersection mining: stopping early yields a truncated but
// correct result (cf. Nguyen et al., early-stopping intersections).
//
// A Guard is shared by all worker goroutines of a parallel run; all its
// methods are safe for concurrent use and a tripped guard latches its
// first error.
package guard

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// ErrDeadline reports that a run exceeded its wall-clock deadline. The
// patterns reported before the deadline remain a valid prefix of the
// result.
var ErrDeadline = errors.New("guard: deadline exceeded")

// ErrBudget reports that a run exhausted a resource budget (maximum
// reported patterns or maximum repository nodes). The patterns reported
// before exhaustion remain a valid prefix of the result. Errors returned
// by guarded miners wrap ErrBudget with the specific bound; match with
// errors.Is.
var ErrBudget = errors.New("guard: budget exhausted")

// Budget bounds a mining run. The zero value imposes no bounds.
type Budget struct {
	// Deadline is the wall-clock instant after which the run stops with
	// ErrDeadline; the zero time means no deadline.
	Deadline time.Time
	// MaxPatterns caps the number of reported patterns; once it is
	// reached, further reports are suppressed and the run stops with an
	// error wrapping ErrBudget. Values <= 0 mean no cap.
	MaxPatterns int
	// MaxTreeNodes caps the size of a miner's repository: live prefix-tree
	// nodes for IsTa, stored sets for the Carpenter/Cobbler repositories
	// and the flat cumulative scheme. In a parallel run the cap applies to
	// each worker's private repository. FP-close and Eclat keep their
	// CFI-tree outside the budget, and LCM keeps no repository, so none
	// of these is affected. Values <= 0 mean no cap.
	MaxTreeNodes int
}

// Enabled reports whether the budget bounds anything.
func (b Budget) Enabled() bool {
	return !b.Deadline.IsZero() || b.MaxPatterns > 0 || b.MaxTreeNodes > 0
}

// Guard enforces a Budget. The nil *Guard enforces nothing; all methods
// are nil-safe so miners can thread an optional guard without checks.
type Guard struct {
	deadline    time.Time
	maxPatterns int64
	maxNodes    int64
	patterns    atomic.Int64
	err         atomic.Pointer[error]
}

// New returns a Guard enforcing b.
func New(b Budget) *Guard {
	return &Guard{
		deadline:    b.Deadline,
		maxPatterns: int64(b.MaxPatterns),
		maxNodes:    int64(b.MaxTreeNodes),
	}
}

// Err returns the latched error of a tripped guard, or nil.
func (g *Guard) Err() error {
	if g == nil {
		return nil
	}
	if p := g.err.Load(); p != nil {
		return *p
	}
	return nil
}

// trip latches err as the guard's error (first trip wins) and returns the
// latched error.
func (g *Guard) trip(err error) error {
	g.err.CompareAndSwap(nil, &err)
	return *g.err.Load()
}

// Check is the periodic probe called from mining.Control's amortized tick
// path: it returns the latched error, or trips and returns ErrDeadline
// once the deadline has passed.
func (g *Guard) Check() error {
	if g == nil {
		return nil
	}
	if err := g.Err(); err != nil {
		return err
	}
	if !g.deadline.IsZero() && !time.Now().Before(g.deadline) {
		return g.trip(ErrDeadline)
	}
	return nil
}

// CountPattern accounts for one reported pattern and reports whether it
// still fits the pattern budget. The first pattern beyond the cap trips
// the guard and returns false; callers must then suppress the report so
// the emitted stream stays within the budget.
func (g *Guard) CountPattern() bool {
	if g == nil {
		return true
	}
	n := g.patterns.Add(1)
	if g.maxPatterns > 0 && n > g.maxPatterns {
		g.trip(fmt.Errorf("%w: pattern budget (%d) reached", ErrBudget, g.maxPatterns))
		return false
	}
	return g.Err() == nil
}

// PollNodes checks a repository size against the node budget, tripping
// the guard with an error wrapping ErrBudget when it is exceeded. It
// returns the guard's latched error, if any.
func (g *Guard) PollNodes(n int) error {
	if g == nil {
		return nil
	}
	if err := g.Err(); err != nil {
		return err
	}
	if g.maxNodes > 0 && int64(n) > g.maxNodes {
		return g.trip(fmt.Errorf("%w: repository node budget (%d) exceeded", ErrBudget, g.maxNodes))
	}
	return nil
}
