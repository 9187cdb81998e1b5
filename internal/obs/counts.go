package obs

import (
	"fmt"
	"reflect"
	"sync/atomic"
)

// Counts is the one definition of a run's counters. engine.Stats, every
// event of this package and the bench cells embed it; Counters
// accumulates it while the run is mining. All fields are cumulative over
// the run and therefore monotone from one event to the next. A field's
// JSON key is also its name in text lines and in expvar.
type Counts struct {
	// Patterns is the number of patterns reported so far.
	Patterns int64 `json:"patterns"`
	// Ops counts algorithm work units (intersections performed,
	// candidate extensions tested).
	Ops int64 `json:"ops"`
	// Checks counts amortized cancellation/budget checkpoints.
	Checks int64 `json:"checks"`
	// NodesPeak is the largest repository size observed so far
	// (prefix-tree nodes or stored sets; 0 for algorithms without a
	// repository, such as LCM).
	NodesPeak int64 `json:"nodes_peak"`
	// Isects counts tid-set kernel intersections started; zero for
	// miners that do not run on the tidset kernels.
	Isects int64 `json:"isects"`
	// EarlyStops counts kernel intersections abandoned once the minsup
	// bound became unreachable.
	EarlyStops int64 `json:"early_stops"`
	// RepSwitches counts kernel representation conversions (promotions,
	// demotions, diffset materializations).
	RepSwitches int64 `json:"rep_switches"`
	// Retries counts re-attempts of panicked work units (shard re-mines,
	// branch re-explorations).
	Retries int64 `json:"retries"`
	// Degraded counts work units abandoned after retry exhaustion; a
	// nonzero value means the run returned a typed partial result.
	Degraded int64 `json:"degraded"`
}

// eachCount calls f with every counter's JSON key and value, in
// declaration order.
func eachCount(c Counts, f func(key string, v int64)) {
	v := reflect.ValueOf(c)
	for i := 0; i < v.NumField(); i++ {
		f(v.Type().Field(i).Tag.Get("json"), v.Field(i).Int())
	}
}

// FormatCounts renders every counter as space-separated key=value pairs
// ("patterns=3 ops=12 ... degraded=0"). It is the one text form of
// Counts, shared by engine.Stats and cmd/fim.
func FormatCounts(c Counts) string {
	var b []byte
	eachCount(c, func(key string, v int64) { b = fmt.Appendf(b, " %s=%d", key, v) })
	return string(b[1:])
}

// Counters accumulates the Counts of one run. A single Counters may be
// shared by many mining.Controls (one per worker goroutine); all fields
// are updated atomically, and only on the Controls' amortized slow
// paths, the reporting path and the supervisor paths, so the mining hot
// loops stay unchanged. A nil *Counters disables all counting.
type Counters struct {
	patterns, ops, checks, nodesPeak                   atomic.Int64
	isects, earlyStops, repSwitches, retries, degraded atomic.Int64

	// OnCheck, when non-nil, is invoked after each amortized slow-path
	// check of every mining.Control feeding these counters, with the
	// Control's pending counts already added (progress sampling). Set
	// it before the run starts; it must be safe for concurrent calls
	// from worker goroutines and return quickly.
	OnCheck func()
}

// Load returns the current counter state.
func (c *Counters) Load() Counts {
	if c == nil {
		return Counts{}
	}
	return Counts{
		Patterns:    c.patterns.Load(),
		Ops:         c.ops.Load(),
		Checks:      c.checks.Load(),
		NodesPeak:   c.nodesPeak.Load(),
		Isects:      c.isects.Load(),
		EarlyStops:  c.earlyStops.Load(),
		RepSwitches: c.repSwitches.Load(),
		Retries:     c.retries.Load(),
		Degraded:    c.degraded.Load(),
	}
}

// Add adds d to the counters. NodesPeak is a maximum, not a sum: d's
// NodesPeak is recorded as a candidate repository peak.
func (c *Counters) Add(d Counts) {
	if c == nil {
		return
	}
	add := func(a *atomic.Int64, v int64) {
		if v != 0 {
			a.Add(v)
		}
	}
	add(&c.patterns, d.Patterns)
	add(&c.ops, d.Ops)
	add(&c.checks, d.Checks)
	for cur := c.nodesPeak.Load(); d.NodesPeak > cur && !c.nodesPeak.CompareAndSwap(cur, d.NodesPeak); {
		cur = c.nodesPeak.Load()
	}
	add(&c.isects, d.Isects)
	add(&c.earlyStops, d.EarlyStops)
	add(&c.repSwitches, d.RepSwitches)
	add(&c.retries, d.Retries)
	add(&c.degraded, d.Degraded)
}
