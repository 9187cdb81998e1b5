package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
)

// metric declares one reported metric, as BENCHMARK.json lists it.
type metric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the program reads: the
// workloads, the end-to-end metrics (reported with --trace 0 on every
// workload) and the per-layer metrics (reported by the traced run,
// --trace 1; a layer a workload does not run reports 0). The file is the
// one list of names and units.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

// loadSpec reads and checks BENCHMARK.json.
func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.Workloads) == 0 || len(spec.EndToEnd) == 0 || len(spec.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no workloads or no metrics", path)
	}
	for _, m := range append(append([]metric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			return nil, fmt.Errorf("%s: invalid metric name %q or unit %q", path, m.Name, m.Unit)
		}
	}
	return &spec, nil
}

// workloads lists the declared workload names in order.
func (s *benchSpec) workloads() []string {
	names := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		names[i] = w.Name
	}
	return names
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// value is one reported metric value with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report fills the declared metrics from vals, in declaration order. A
// declared metric missing from vals reports 0, and non-finite values
// (an empty sample) report 0 too, so the result line is always valid
// JSON with every declared name.
func report(decl []metric, vals map[string]float64) map[string]value {
	out := make(map[string]value, len(decl))
	for _, m := range decl {
		v := vals[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.Name] = value{Value: v, Unit: m.Unit}
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
