package fim

// Link the built-in algorithm packages: each registers itself with the
// engine from its init function, and internal/parallel attaches the
// parallel engines. Adding a miner to the public API, the command line
// tool and the conformance suite is one new package plus one blank import
// here; internal/bench/bench.go imports the same set for the bench
// harness, and TestEveryMinerLinked checks both lists.
import (
	_ "repro/internal/carpenter"
	_ "repro/internal/cobbler"
	_ "repro/internal/core"
	_ "repro/internal/eclat"
	_ "repro/internal/fpgrowth"
	_ "repro/internal/lcm"
	_ "repro/internal/naive"
	_ "repro/internal/parallel"
)
