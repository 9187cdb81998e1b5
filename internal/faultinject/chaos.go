package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/mining"
)

// ErrChaos is the base error the chaos scheduler's injected tick errors
// wrap (errors.Is-matchable).
var ErrChaos = errors.New("faultinject: injected chaos fault")

// ChaosConfig bounds one seeded fault schedule: how many faults of each
// kind to draw and the ranges they are drawn from. Kinds with count 0
// are absent from the schedule.
type ChaosConfig struct {
	// PanicTicks is the number of one-shot worker panics injected at
	// cooperative tick checks.
	PanicTicks int
	// ErrTicks is the number of one-shot errors injected at tick checks
	// (ordinary errors, so supervisors abort the run on them).
	ErrTicks int
	// TreeNodes is the number of one-shot panics injected at prefix-tree
	// node allocations.
	TreeNodes int
	// MaxTick bounds the tick indices drawn (faults land in [1, MaxTick]).
	MaxTick int64
	// MaxTreeNode bounds the live-node thresholds drawn (in
	// [2, MaxTreeNode]).
	MaxTreeNode int
}

// Chaos is one deterministic fault schedule: a seeded PRNG draws
// distinct fault points for each kind once at construction, and Arm
// installs consume-once triggers for all of them across the process
// seams (tick hook, tree-allocation hook). Two Chaos values with equal
// seed and config inject byte-identical schedules, which is what makes
// a chaos-suite failure reproducible from its printed seed.
type Chaos struct {
	seed int64
	cfg  ChaosConfig

	// Immutable sorted copies of the schedule, for String.
	panicAt []int64
	errAt   []int64
	treeAt  []int

	ticks atomic.Int64

	mu         sync.Mutex
	panicTicks map[int64]bool
	errTicks   map[int64]bool
	treeNodes  []int // sorted ascending, consumed entries removed
	fired      int
}

// NewChaos draws the fault schedule for seed under cfg. Kind counts are
// clamped so distinct draws exist (at most half the range, keeping the
// draw loop short).
func NewChaos(seed int64, cfg ChaosConfig) *Chaos {
	if cfg.MaxTick < 2 {
		cfg.MaxTick = 2
	}
	if cfg.MaxTreeNode < 3 {
		cfg.MaxTreeNode = 3
	}
	clamp := func(n int, space int64) int {
		if int64(n) > space/2 {
			return int(space / 2)
		}
		return n
	}
	cfg.PanicTicks = clamp(cfg.PanicTicks, cfg.MaxTick)
	cfg.ErrTicks = clamp(cfg.ErrTicks, cfg.MaxTick)
	cfg.TreeNodes = clamp(cfg.TreeNodes, int64(cfg.MaxTreeNode)-1)

	rng := rand.New(rand.NewSource(seed))
	c := &Chaos{
		seed:       seed,
		cfg:        cfg,
		panicTicks: make(map[int64]bool),
		errTicks:   make(map[int64]bool),
	}
	// Tick draws are distinct across both tick kinds so a schedule never
	// stacks two faults on one check.
	taken := make(map[int64]bool)
	drawTick := func() int64 {
		for {
			t := rng.Int63n(cfg.MaxTick) + 1
			if !taken[t] {
				taken[t] = true
				return t
			}
		}
	}
	for i := 0; i < cfg.PanicTicks; i++ {
		t := drawTick()
		c.panicTicks[t] = true
		c.panicAt = append(c.panicAt, t)
	}
	for i := 0; i < cfg.ErrTicks; i++ {
		t := drawTick()
		c.errTicks[t] = true
		c.errAt = append(c.errAt, t)
	}
	nodesTaken := make(map[int]bool)
	for i := 0; i < cfg.TreeNodes; i++ {
		for {
			n := rng.Intn(cfg.MaxTreeNode-1) + 2
			if !nodesTaken[n] {
				nodesTaken[n] = true
				c.treeNodes = append(c.treeNodes, n)
				c.treeAt = append(c.treeAt, n)
				break
			}
		}
	}
	sort.Slice(c.panicAt, func(i, j int) bool { return c.panicAt[i] < c.panicAt[j] })
	sort.Slice(c.errAt, func(i, j int) bool { return c.errAt[i] < c.errAt[j] })
	sort.Ints(c.treeAt)
	sort.Ints(c.treeNodes)
	return c
}

// Arm installs the schedule's consume-once triggers into the process
// seams: every cooperative tick checks (interval forced to 1), tick
// faults fire by global tick index, and tree faults fire when any tree's
// live node count first reaches a drawn threshold. Each fault fires at
// most once per Chaos value. Call the returned function to disarm; a
// Chaos is single-use (construct a fresh one to rerun a schedule).
func (c *Chaos) Arm() (restore func()) {
	restoreInterval := mining.SetCheckInterval(1)
	restoreHook := mining.SetTickHook(func() error {
		t := c.ticks.Add(1)
		c.mu.Lock()
		if c.panicTicks[t] {
			delete(c.panicTicks, t)
			c.fired++
			c.mu.Unlock()
			panic(TickFault{K: t})
		}
		if c.errTicks[t] {
			delete(c.errTicks, t)
			c.fired++
			c.mu.Unlock()
			return fmt.Errorf("chaos tick %d: %w", t, ErrChaos)
		}
		c.mu.Unlock()
		return nil
	})
	core.TestHookAlloc = func(live int) {
		c.mu.Lock()
		// Thresholds are sorted; fire (and consume) the smallest one this
		// allocation reaches.
		fire := false
		if len(c.treeNodes) > 0 && live >= c.treeNodes[0] {
			c.treeNodes = c.treeNodes[1:]
			c.fired++
			fire = true
		}
		c.mu.Unlock()
		if fire {
			panic(TreeFault{Live: live})
		}
	}
	return func() {
		core.TestHookAlloc = nil
		restoreHook()
		restoreInterval()
	}
}

// Fired returns the number of scheduled faults that have fired so far.
func (c *Chaos) Fired() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired
}

// String prints the seed and the full schedule — enough to reconstruct
// the exact run that failed.
func (c *Chaos) String() string {
	return fmt.Sprintf("chaos(seed=%d panic@%v err@%v tree@%v)", c.seed, c.panicAt, c.errAt, c.treeAt)
}
