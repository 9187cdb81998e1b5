package core

import (
	"repro/internal/engine"
	"repro/internal/prep"
	"repro/internal/result"
)

func init() {
	engine.Register(engine.Registration{
		Name:    "ista",
		Doc:     "cumulative transaction intersection with a prefix-tree repository (§3.2–3.4)",
		Targets: []engine.Target{engine.Closed},
		Prep:    prep.Config{Items: prep.OrderAscFreq, Trans: prep.OrderSizeAsc},
		Order:   0,
		Mine: func(pre *prep.Prepared, spec *engine.Spec, rep result.Reporter) error {
			return minePrepared(pre, spec.MinSupport, false, spec.Control(), rep)
		},
	})
}

// MineNoPrune is the §3.2 pruning ablation: IsTa with the item-elimination
// tree pruning turned off. It runs as a copy of the "ista" registration
// with Mine replaced, so it shares that registration's prep and run
// machinery.
func MineNoPrune(pre *prep.Prepared, spec *engine.Spec, rep result.Reporter) error {
	return minePrepared(pre, spec.MinSupport, true, spec.Control(), rep)
}
