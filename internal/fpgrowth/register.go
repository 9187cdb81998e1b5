package fpgrowth

import (
	"repro/internal/engine"
	"repro/internal/prep"
	"repro/internal/result"
)

func init() {
	engine.Register(engine.Registration{
		Name:    "fpclose",
		Doc:     "FP-growth over a frequent-pattern tree; closed output via a CFI repository (Grahne & Zhu)",
		Targets: []engine.Target{engine.Closed, engine.All},
		// Descending frequency coding puts frequent items near the root,
		// which is what keeps the FP-tree compact.
		Prep:  prep.Config{Items: prep.OrderDescFreq, Trans: prep.OrderOriginal},
		Order: 30,
		Mine: func(pre *prep.Prepared, spec *engine.Spec, rep result.Reporter) error {
			return minePrepared(pre, spec.MinSupport, spec.Target, spec.Control(), rep)
		},
	})
}
