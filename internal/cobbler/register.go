package cobbler

import (
	"repro/internal/engine"
	"repro/internal/prep"
	"repro/internal/result"
)

func init() {
	engine.Register(engine.Registration{
		Name:    "cobbler",
		Doc:     "combined column/row enumeration: Eclat-style search switching to Carpenter on small covers (Pan et al.)",
		Targets: []engine.Target{engine.Closed},
		Prep:    prep.Config{Items: prep.OrderAscFreq, Trans: prep.OrderOriginal},
		Order:   20,
		Mine: func(pre *prep.Prepared, spec *engine.Spec, rep result.Reporter) error {
			return minePrepared(pre, spec.MinSupport, 0, spec.Control(), rep)
		},
	})
}
