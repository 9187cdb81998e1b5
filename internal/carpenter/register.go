package carpenter

import (
	"repro/internal/engine"
	"repro/internal/mining"
	"repro/internal/prep"
	"repro/internal/result"
)

func init() {
	for _, v := range []Variant{Table, Lists} {
		doc := "transaction set enumeration over the counter matrix of Table 1 (§3.1.2)"
		order := 10
		if v == Lists {
			doc = "transaction set enumeration over per-item tid lists (§3.1.1)"
			order = 11
		}
		engine.Register(engine.Registration{
			Name:    v.String(),
			Doc:     doc,
			Targets: []engine.Target{engine.Closed},
			Prep:    prep.Config{Items: prep.OrderAscFreq, Trans: prep.OrderSizeAsc},
			Order:   order,
			Mine: func(pre *prep.Prepared, spec *engine.Spec, rep result.Reporter) error {
				return minePrepared(pre, spec.MinSupport, v, false, false, spec.Control(), rep)
			},
		})
	}
}

// The §3.1.1 ablations, each run as a copy of its variant's registration
// with Mine replaced. None changes the result.

// MineTableNoElim is the table variant with item elimination off.
func MineTableNoElim(pre *prep.Prepared, spec *engine.Spec, rep result.Reporter) error {
	return minePrepared(pre, spec.MinSupport, Table, true, false, spec.Control(), rep)
}

// MineListsNoElim is the lists variant with item elimination off.
func MineListsNoElim(pre *prep.Prepared, spec *engine.Spec, rep result.Reporter) error {
	return minePrepared(pre, spec.MinSupport, Lists, true, false, spec.Control(), rep)
}

// MineTableHash is the table variant keeping the reported sets in a hash
// map instead of the prefix-tree repository.
func MineTableHash(pre *prep.Prepared, spec *engine.Spec, rep result.Reporter) error {
	return minePrepared(pre, spec.MinSupport, Table, false, true, spec.Control(), rep)
}

// MineBlock runs the table variant on a prepared block of rows as one step
// of a run that is already going, under that run's control: Cobbler's row
// enumeration (package cobbler) mines each small cover this way, so the
// block shares the run's cancellation, budgets and counters. pre must
// come from prep.Prepare with minsup.
func MineBlock(pre *prep.Prepared, minsup int, ctl *mining.Control, rep result.Reporter) error {
	return minePrepared(pre, minsup, Table, false, false, ctl, rep)
}
