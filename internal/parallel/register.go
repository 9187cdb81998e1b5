package parallel

import (
	"runtime"

	"repro/internal/engine"
	"repro/internal/prep"
	"repro/internal/result"
)

// init attaches the parallel engines to the already-registered sequential
// miners. The sequential registrations exist by now because this package
// imports internal/core and internal/carpenter, whose inits run first.
func init() {
	register("ista", minePreparedIsTa)
	register("carpenter-table", minePreparedCarpenter)
}

// register attaches mine as the parallel engine of the named miner. The
// engine resolves the worker count (negative: all cores) into the Spec
// mine receives, and with one worker runs the sequential registration
// under the same Spec.
func register(name string, mine engine.MineFunc) {
	seq, _ := engine.Lookup(name)
	engine.RegisterParallel(name, func(pre *prep.Prepared, spec *engine.Spec, rep result.Reporter) error {
		if spec.Workers < 1 {
			spec.Workers = runtime.GOMAXPROCS(0)
		}
		if spec.Workers <= 1 {
			return seq.Mine(pre, spec, rep)
		}
		return mine(pre, spec, rep)
	})
}
