package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// tinyConfig runs a workload briefly: one set-up, two operations.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload,
		seed:     7,
		trace:    trace,
		minOps:   2,
		setups:   1,
		warmups:  1,
		workdir:  t.TempDir(),
		stderr:   os.Stderr,
	}
}

// testSpec loads the repository's BENCHMARK.json.
func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// applies lists, per workload, per-layer metrics that must be non-zero
// in a traced run because the workload runs that layer.
var applies = map[string][]string{
	"paper": {"dataset.read_ms", "prep.ms", "engine.mine_ms", "core.isect_ms", "core.prune_ms",
		"core.compact_ms", "core.report_ms", "core.nodes_created", "core.nodes_peak", "core.prune_passes",
		"result.write_ms", "result.patterns", "go.gc_cpu_frac", "wall.p50_ms", "host.cal_ms"},
	"dense": {"dataset.read_ms", "prep.ms", "engine.mine_ms", "tidset.isects", "tidset.early_stops",
		"tidset.early_stop_ratio", "tidset.isects_per_ms", "result.write_ms", "result.patterns"},
	"basket": {"dataset.read_ms", "prep.ms", "engine.mine_ms", "tidset.isects", "tidset.early_stops",
		"tidset.rep_switches", "result.patterns", "wall.p50_ms", "host.cal_ms"},
	"serve": {"dataset.read_ms", "engine.mine_ms", "core.isect_ms", "core.report_ms", "serve.mine_ms",
		"serve.tx_ms", "serve.closed_ms", "serve.wire_ms", "serve.resp_kb", "serve.tx_p50_ms",
		"serve.closed_p50_ms", "persist.bytes_per_tx"},
}

// TestEveryMetricEmitted runs every declared workload briefly, untraced
// and traced, and checks that each declared metric is reported, with its
// unit, that the names and units are valid, and that every operation
// matched its reference.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := testSpec(t)
	for _, name := range spec.workloads() {
		for _, trace := range []bool{false, true} {
			decl := spec.EndToEnd
			if trace {
				decl = spec.PerLayer
			}
			line, err := runWorkload(spec, tinyConfig(t, name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 2 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, line.Correct, line.Attempted, line.Failed)
			}
			if len(line.Metrics) != len(decl) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(line.Metrics), len(decl))
			}
			for _, m := range decl {
				if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
					t.Errorf("invalid metric name %q or unit %q", m.Name, m.Unit)
				}
				v, ok := line.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, m.Name, v, m.Unit)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, v.Value)
				}
			}
			if !trace {
				continue
			}
			for _, m := range applies[name] {
				if line.Metrics[m].Value == 0 {
					t.Errorf("%s: per-layer metric %s is 0 on a workload that runs its layer", name, m)
				}
			}
		}
	}
}

// TestSeedRegeneratesInputs checks that a seed fixes the inputs byte for
// byte and that another seed changes them.
func TestSeedRegeneratesInputs(t *testing.T) {
	for name, spec := range batches {
		a, b := seeded(spec.base(), 7), seeded(spec.base(), 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave different inputs", name)
		}
		if bytes.Equal(a, seeded(spec.base(), 8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
	}
	a, b := newServeInputs(7), newServeInputs(7)
	if !bytes.Equal(a.body, b.body) || !reflect.DeepEqual(a.txBodies, b.txBodies) {
		t.Error("serve: seed 7 gave different inputs")
	}
	if c := newServeInputs(8); bytes.Equal(a.body, c.body) || reflect.DeepEqual(a.txBodies, c.txBodies) {
		t.Error("serve: seeds 7 and 8 gave the same inputs")
	}
}

// TestWrongDigestCounted injects a wrong reference fingerprint and checks
// that the operation is counted as failed while the run goes on.
func TestWrongDigestCounted(t *testing.T) {
	cfg := tinyConfig(t, "dense", false)
	spec := batches["dense"]
	input := seeded(spec.base(), cfg.seed)
	refSet, err := reference(input, spec.ref, spec.minsup)
	if err != nil {
		t.Fatal(err)
	}
	ref := digestOfSet(refSet, 1)
	wrong := ref
	wrong.Sum++

	s := newSampler(cfg)
	var out bytes.Buffer
	for _, want := range []digest{ref, wrong, ref} {
		var err error
		s.time("job", func() { _, err = job(input, spec.algo, spec.minsup, &out, nil, 1) })
		checkJob(s, err, out.Bytes(), want)
	}
	if s.attempted != 3 || s.failed != 1 {
		t.Errorf("batch: attempted %d failed %d, want 3 and 1", s.attempted, s.failed)
	}

	cfg.workload = "serve"
	in := newServeInputs(cfg.seed)
	refs, err := newServeRefs(in)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := setUpService(cfg, filepath.Join(cfg.workdir, "store"), in, refs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.close()
	bad := refs
	bad.mine.Sum++
	s = newSampler(cfg)
	cycle(s, svc, in, refs, func() int { return 1 }, "")
	cycle(s, svc, in, bad, func() int { return 1 }, "")
	if perCycle := 2 + len(in.txBodies); s.attempted != 2*perCycle || s.failed != 1 {
		t.Errorf("serve: attempted %d failed %d, want %d and 1", s.attempted, s.failed, 2*perCycle)
	}
}

// TestQuantile pins the interpolation the latency percentiles use.
func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-3.7) > 1e-9 {
		t.Errorf("p90 = %v, want 3.7", got)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

// TestScaledTimes checks that a calibration sets the scale from the
// kernel's time and that an operation is recorded as measured and scaled.
func TestScaledTimes(t *testing.T) {
	s := newSampler(tinyConfig(t, "dense", false))
	s.calibrate()
	if c := s.calMs[0]; c <= 0 || math.Abs(s.scale*c-calRefMs) > 1e-9 {
		t.Errorf("calibration %v ms gave scale %v, want %v/%v", c, s.scale, calRefMs, c)
	}
	s.scale = 2
	s.time("job", func() { time.Sleep(5 * time.Millisecond) })
	w, l := s.wall["job"][0], s.lat["job"][0]
	if w < 5 || math.Abs(l-2*w) > 1e-6 || math.Abs(ms(s.busy)-l) > 1e-6 {
		t.Errorf("wall %v ms, scaled %v ms, busy %v; want scaled = busy = 2 × wall >= 10", w, l, s.busy)
	}
}

// TestSpecRejectsInvalidMetric checks that a metric name or unit outside
// the result format is refused when the spec is loaded.
func TestSpecRejectsInvalidMetric(t *testing.T) {
	for _, m := range []string{
		`{"name": "p50 ms", "unit": "ms"}`,
		`{"name": "p50_ms", "unit": "milli seconds"}`,
	} {
		path := filepath.Join(t.TempDir(), "BENCHMARK.json")
		body := `{"workloads": [{"name": "paper"}], "end_to_end": [` + m + `], "per_layer": [{"name": "a", "unit": "ms"}]}`
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadSpec(path); err == nil {
			t.Errorf("loadSpec accepted %s", m)
		}
	}
}
