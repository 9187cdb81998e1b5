package naive

import (
	"repro/internal/engine"
	"repro/internal/prep"
	"repro/internal/result"
)

func init() {
	engine.Register(engine.Registration{
		Name:    "flat",
		Doc:     "flat cumulative intersection scheme without a prefix tree (Mielikäinen); the paper's baseline",
		Targets: []engine.Target{engine.Closed},
		// Keep the original item codes (compacted): removing infrequent
		// items changes neither the closed frequent sets nor their
		// supports — any item in the closure of a frequent set is itself
		// frequent.
		Prep:  prep.Config{Items: prep.OrderKeep, Trans: prep.OrderOriginal},
		Order: 70,
		Mine: func(pre *prep.Prepared, spec *engine.Spec, rep result.Reporter) error {
			return minePrepared(pre, spec.MinSupport, spec.Control(), rep)
		},
	})
}
