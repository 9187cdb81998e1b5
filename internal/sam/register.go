package sam

import (
	"repro/internal/engine"
	"repro/internal/prep"
	"repro/internal/result"
)

func init() {
	engine.Register(engine.Registration{
		Name:    "sam",
		Doc:     "split-and-merge over weighted transaction suffixes; closed output via subsumption filter (Borgelt & Wang)",
		Targets: []engine.Target{engine.Closed, engine.All},
		// Descending frequency coding: SaM wants frequent items early so
		// the split groups are large and merge lists shrink quickly.
		Prep:  prep.Config{Items: prep.OrderDescFreq, Trans: prep.OrderOriginal},
		Order: 60,
		Mine: func(pre *prep.Prepared, spec *engine.Spec, rep result.Reporter) error {
			return minePrepared(pre, spec.MinSupport, spec.Target, spec.Control(), rep)
		},
	})
}
