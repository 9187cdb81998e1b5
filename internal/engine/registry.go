package engine

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/prep"
	"repro/internal/result"
)

// MineFunc mines a prepared database. The preprocessing declared in the
// Registration has already run: pre holds the recoded, filtered,
// reordered transactions, and patterns must be decoded back to original
// item codes (pre.DecodeSet) before reporting. Cancellation and budgets
// come from spec.Control().
type MineFunc func(pre *prep.Prepared, spec *Spec, rep result.Reporter) error

// Registration declares a miner's capabilities to the engine. Algorithm
// packages register themselves from init, so linking a package (usually
// through a blank import in the root fim package) is all it takes to make
// its algorithm available everywhere — public API, command line, bench
// harness, conformance suite. Algorithm packages export no entry point
// that runs a miner on its own: an ablation (IsTa without pruning,
// Carpenter without item elimination, another §3.4 order) is an
// unregistered copy of the base registration with Mine or Prep replaced,
// run through Registration.Run. A copy keeps the base's parallel engine,
// so ablation copies run sequentially (Spec.Workers 0 or 1).
type Registration struct {
	// Name is the unique lookup key ("ista", "carpenter-table", …).
	Name string
	// Doc is a one-line description used in generated help and tables.
	Doc string
	// Targets lists the set families the miner can produce.
	Targets []Target
	// Prep declares the preprocessing the algorithm requires; the engine
	// applies it before calling Mine.
	Prep prep.Config
	// Order ranks the algorithm in presentation listings (ascending;
	// ties break by name). The paper's contributions come first.
	Order int
	// Mine is the sequential mining entry point.
	Mine MineFunc

	// parallel is the optional parallel engine, attached separately via
	// RegisterParallel so the dependency points from the parallel package
	// to the algorithm packages and not the other way around.
	parallel MineFunc
}

// Parallelizable reports whether a parallel engine is registered.
func (r *Registration) Parallelizable() bool { return r.parallel != nil }

// SupportsTarget reports whether the miner declared target t.
func (r *Registration) SupportsTarget(t Target) bool {
	for _, c := range r.Targets {
		if c == t {
			return true
		}
	}
	return false
}

var (
	mu       sync.RWMutex
	registry = map[string]*Registration{}
)

// Register adds a miner to the registry. It panics on an empty or
// duplicate name, a nil Mine function, or no declared targets — these are
// programming errors in an algorithm package's init, not runtime
// conditions.
func Register(r Registration) {
	if r.Name == "" {
		panic("engine: Register with empty name")
	}
	if r.Mine == nil {
		panic(fmt.Sprintf("engine: Register(%q) with nil Mine", r.Name))
	}
	if len(r.Targets) == 0 {
		panic(fmt.Sprintf("engine: Register(%q) with no targets", r.Name))
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[r.Name]; dup {
		panic(fmt.Sprintf("engine: duplicate registration %q", r.Name))
	}
	registry[r.Name] = &r
}

// RegisterParallel attaches a parallel engine to an already registered
// miner. It panics if the name is unknown or already has a parallel
// engine. Package initialization order guarantees the sequential
// registration ran first: the parallel package imports the algorithm
// packages it accelerates.
func RegisterParallel(name string, fn MineFunc) {
	mu.Lock()
	defer mu.Unlock()
	r, ok := registry[name]
	if !ok {
		panic(fmt.Sprintf("engine: RegisterParallel(%q) before Register", name))
	}
	if r.parallel != nil {
		panic(fmt.Sprintf("engine: duplicate parallel registration %q", name))
	}
	if fn == nil {
		panic(fmt.Sprintf("engine: RegisterParallel(%q) with nil engine", name))
	}
	r.parallel = fn
}

// Lookup returns the registration for name.
func Lookup(name string) (*Registration, bool) {
	mu.RLock()
	defer mu.RUnlock()
	r, ok := registry[name]
	return r, ok
}

// Registrations returns all registered miners in presentation order
// (ascending Order, ties by name).
func Registrations() []*Registration {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]*Registration, 0, len(registry))
	for _, r := range registry {
		out = append(out, r)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Order != out[b].Order {
			return out[a].Order < out[b].Order
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// Names returns the registered algorithm names in presentation order.
func Names() []string {
	regs := Registrations()
	out := make([]string, len(regs))
	for i, r := range regs {
		out[i] = r.Name
	}
	return out
}
