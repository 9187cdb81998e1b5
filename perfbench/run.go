package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"time"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	dur      time.Duration // measured time, split into one block per set-up
	trace    bool
	minOps   int    // operations a run measures at least
	setups   int    // set-ups, spread through the run; setup_s is their median
	warmups  int    // warm-up operations per set-up, part of its time
	workdir  string // working files: the service's stores, the trace
	stderr   io.Writer
}

// tracedKind marks the operation kinds of traced operations. A traced
// run alternates plain operations, which run exactly as with --trace 0,
// and traced ones, so both meet the same host conditions and
// obs.overhead_pct compares their medians.
const tracedKind = "+trace"

// outcome collects a run's metric values and its measured operations.
type outcome struct {
	cfg  config
	vals map[string]float64
	s    *sampler
}

func newOutcome(cfg config) *outcome {
	return &outcome{cfg: cfg, vals: map[string]float64{}}
}

// measure runs cfg.setups rounds of a timed set-up followed by a
// measured block of an equal share of cfg.dur, calling op until the
// block is over. Each set-up's time is scaled to the reference host
// speed by a calibration just before it (see calib.go); setup_s is their
// median. setUp may return a clean-up, which runs untimed after the
// set-up has been timed.
func (o *outcome) measure(setUp func() (func() error, error), op func(*sampler)) error {
	o.s = newSampler(o.cfg)
	times := make([]float64, 0, o.cfg.setups)
	perBlock := (o.cfg.minOps + o.cfg.setups - 1) / o.cfg.setups
	for i := 0; i < o.cfg.setups; i++ {
		o.s.calibrate()
		start := time.Now()
		cleanUp, err := setUp()
		if err != nil {
			return err
		}
		times = append(times, time.Since(start).Seconds()*o.s.scale)
		if cleanUp != nil {
			if err := cleanUp(); err != nil {
				return err
			}
		}
		o.s.block(o.cfg.dur/time.Duration(o.cfg.setups), perBlock)
		for o.s.more() {
			op(o.s)
		}
	}
	o.vals["setup_s"] = median(times)
	return nil
}

// endToEnd fills the end-to-end metrics, all times at the reference
// host speed; primary names the operation kind whose latency p50_ms and
// p90_ms report.
func (o *outcome) endToEnd(primary string) {
	s := o.s
	o.vals["p50_ms"] = median(s.lat[primary])
	o.vals["p90_ms"] = quantile(s.lat[primary], 0.9)
	o.vals["ops_per_s"] = ratio(float64(s.attempted), s.busy.Seconds())
	o.vals["alloc_mb_per_op"] = ratio(float64(s.alloc)/1e6, float64(s.attempted))
}

// writeTrace stores the traced run's spans under the work directory.
func (o *outcome) writeTrace(tr *tracer) error {
	name := fmt.Sprintf("trace-%s-seed%d.jsonl", o.cfg.workload, o.cfg.seed)
	return tr.write(filepath.Join(o.cfg.workdir, name))
}

// sampler times the operations of a run. Only the calls into the
// library are timed: set-ups, input checks, output checks, calibrations
// and the forced collections between operations are not. Every latency
// is recorded twice: as measured (wall) and scaled to the reference host
// speed by the last calibration (lat, busy).
type sampler struct {
	meter       *meter
	first, last reading

	blockStart time.Time
	blockDur   time.Duration
	blockMin   int // operations the block runs at least
	blockOps   int

	scale float64              // calRefMs over the last calibration's time
	calMs []float64            // every calibration's time
	lat   map[string][]float64 // ms per operation kind, scaled
	wall  map[string][]float64 // ms per operation kind, as measured
	busy  time.Duration        // scaled
	alloc uint64

	attempted, failed int
	stderr            io.Writer
	prefix            string
}

func newSampler(cfg config) *sampler {
	s := &sampler{
		meter:  newMeter(),
		scale:  1,
		lat:    map[string][]float64{},
		wall:   map[string][]float64{},
		stderr: cfg.stderr,
		prefix: cfg.workload,
	}
	s.first = s.meter.read()
	return s
}

// block starts a measured block of length d and at least n operations.
func (s *sampler) block(d time.Duration, n int) {
	s.blockStart, s.blockDur, s.blockMin, s.blockOps = time.Now(), d, n, 0
}

// more reports whether the block should run another operation (or
// cycle); when it says no, the closing reading is taken.
func (s *sampler) more() bool {
	if s.blockOps < s.blockMin || time.Since(s.blockStart) < s.blockDur {
		return true
	}
	s.last = s.meter.read()
	return false
}

// calibrate times the calibration kernel and scales the operations
// that follow, until the next calibration, by calRefMs over its time.
func (s *sampler) calibrate() {
	c := ms(hostCal.run())
	s.calMs = append(s.calMs, c)
	s.scale = calRefMs / c
}

// time runs fn as one operation of the given kind and returns its
// latency as measured.
func (s *sampler) time(kind string, fn func()) time.Duration {
	r0 := s.meter.read()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r1 := s.meter.read()
	s.wall[kind] = append(s.wall[kind], ms(d))
	s.lat[kind] = append(s.lat[kind], ms(d)*s.scale)
	s.busy += time.Duration(float64(d) * s.scale)
	s.alloc += r1.alloc - r0.alloc
	s.attempted++
	s.blockOps++
	return d
}

// fail counts a failed operation; the first few are described on
// standard error.
func (s *sampler) fail(format string, args ...any) {
	s.failed++
	if s.failed <= 5 && s.stderr != nil {
		fmt.Fprintf(s.stderr, "perfbench %s: failure: %s\n", s.prefix, fmt.Sprintf(format, args...))
	}
}

// gcFrac is the share of CPU time the Go collector used during the
// run's measured blocks, the collections forced between operations
// included.
func (s *sampler) gcFrac() float64 {
	return ratio(s.last.gcCPU-s.first.gcCPU, s.last.cpu-s.first.cpu)
}

// overheadPct is how much slower the traced operations of kind are than
// the plain ones they alternate with, in percent of the plain median.
func (s *sampler) overheadPct(kind string) float64 {
	p, t := median(s.lat[kind]), median(s.lat[kind+tracedKind])
	if p == 0 || math.IsNaN(p) || math.IsNaN(t) {
		return 0
	}
	return (t/p - 1) * 100
}

// perLayerJobs fills the dataset, prep, engine, tidset and result
// metrics from traced jobs, plus the tracing overhead on kind and the GC
// share of the run.
func (o *outcome) perLayerJobs(kind string, jobs []jobTrace) {
	var read, prepMs, kept, mine, write, pats, isects, stops, switches []float64
	var sumIsects, sumStops, sumMine float64
	for _, j := range jobs {
		st := j.stats
		read = append(read, ms(j.read))
		prepMs = append(prepMs, ms(st.PrepTime))
		kept = append(kept, float64(st.PreppedItems))
		mine = append(mine, ms(st.MineTime))
		write = append(write, ms(j.write))
		pats = append(pats, float64(j.patterns))
		isects = append(isects, float64(st.Isects))
		stops = append(stops, float64(st.EarlyStops))
		switches = append(switches, float64(st.RepSwitches))
		sumIsects += float64(st.Isects)
		sumStops += float64(st.EarlyStops)
		sumMine += ms(st.MineTime)
	}
	v := o.vals
	v["dataset.read_ms"] = median(read)
	v["prep.ms"] = median(prepMs)
	v["prep.items_kept"] = median(kept)
	v["engine.mine_ms"] = median(mine)
	v["result.write_ms"] = median(write)
	v["result.patterns"] = median(pats)
	v["tidset.isects"] = median(isects)
	v["tidset.early_stops"] = median(stops)
	v["tidset.early_stop_ratio"] = ratio(sumStops, sumIsects)
	v["tidset.rep_switches"] = median(switches)
	v["tidset.isects_per_ms"] = ratio(sumIsects, sumMine)
	v["obs.overhead_pct"] = o.s.overheadPct(kind)
	v["go.gc_cpu_frac"] = o.s.gcFrac()
	v["wall.p50_ms"] = median(o.s.wall[kind])
	v["host.cal_ms"] = median(o.s.calMs)
}
