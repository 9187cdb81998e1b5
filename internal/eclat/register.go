package eclat

import (
	"repro/internal/engine"
	"repro/internal/prep"
	"repro/internal/result"
)

func init() {
	engine.Register(engine.Registration{
		Name:    "eclat",
		Doc:     "depth-first tid-list intersection with a tid-set-keyed repository for closed output (Zaki et al.)",
		Targets: []engine.Target{engine.Closed, engine.All, engine.Maximal},
		Prep:    prep.Config{Items: prep.OrderAscFreq, Trans: prep.OrderOriginal},
		Order:   50,
		Mine: func(pre *prep.Prepared, spec *engine.Spec, rep result.Reporter) error {
			return minePrepared(pre, spec.MinSupport, spec.Target, spec.Control(), rep)
		},
	})
}
