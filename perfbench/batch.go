package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	fim "repro"
	"repro/internal/gendata"
	"repro/internal/txdb"
)

// batchSpec is a batch workload: one job is the cmd/fim path, in-memory
// FIMI bytes → fim.Read → fim.Mine → ResultSet.Write into a buffer.
type batchSpec struct {
	algo   fim.Algorithm
	ref    fim.Algorithm // independent miner that computes the reference
	minsup int
	base   func() *txdb.DB
}

// batches are sized so one job takes 100–200 ms on one core, which keeps
// a 20 s run well above 100 jobs. README.md says why each exists.
var batches = map[string]batchSpec{
	// Figure 5 stand-in, IsTa: core does nearly all of the work.
	"paper": {fim.IsTa, fim.LCM, 18, func() *txdb.DB {
		return gendata.Yeast(0.15, baseSeed)
	}},
	// Dense ramp, Eclat: the tidset bitmap and diffset kernels.
	"dense": {fim.EclatClosed, fim.LCM, 550, func() *txdb.DB {
		return gendata.Dense(2000, 48, 0.05, 0.90, baseSeed)
	}},
	// Sparse market baskets, Eclat: the sparse kernels and the
	// representation switches; read and prep carry a real share.
	"basket": {fim.EclatClosed, fim.LCM, 300, func() *txdb.DB {
		return gendata.Quest(gendata.QuestConfig{
			Items: 1000, Transactions: 20000, AvgLen: 10,
			Patterns: 200, AvgPatternLen: 4, Bundles: 20, Seed: baseSeed,
		})
	}},
}

// jobTrace is what a traced job records about its layers.
type jobTrace struct {
	read, run, write time.Duration
	stats            fim.MiningStats
	patterns         int
}

// job runs the cmd/fim path once on input and leaves the written result
// in out. With a tracer it records spans around each library call and
// collects fim.MiningStats; with a nil tracer it does neither, as
// cmd/fim without -stats.
func job(input []byte, algo fim.Algorithm, minsup int, out *bytes.Buffer, tr *tracer, op int) (jobTrace, error) {
	var jt jobTrace
	opts := fim.Options{MinSupport: minsup, Algorithm: algo}
	if tr != nil {
		opts.Stats = &jt.stats
	}
	root := tr.begin("job", 0, op)
	defer tr.end(root)

	sp := tr.begin("dataset.read", root, op)
	db, err := fim.Read(bytes.NewReader(input))
	jt.read = tr.end(sp)
	if err != nil {
		return jt, fmt.Errorf("read: %w", err)
	}

	var set fim.ResultSet
	start := time.Now()
	sp = tr.begin("engine.run", root, op)
	err = fim.Mine(db, opts, set.Collect())
	jt.run = tr.end(sp)
	if err != nil {
		return jt, fmt.Errorf("mine: %w", err)
	}
	if tr != nil {
		tr.add("prep", sp, op, start, jt.stats.PrepTime)
		tr.add("engine.mine", sp, op, start.Add(jt.stats.PrepTime), jt.stats.MineTime)
	}

	sp = tr.begin("result.write", root, op)
	out.Reset()
	err = set.Write(out, nil)
	jt.write = tr.end(sp)
	jt.patterns = set.Len()
	if err != nil {
		return jt, fmt.Errorf("write: %w", err)
	}
	return jt, nil
}

// reference mines input with an independent algorithm and fingerprints
// the result; the benchmark compares every job against it.
func reference(input []byte, algo fim.Algorithm, minsup int) (*fim.ResultSet, error) {
	db, err := fim.Read(bytes.NewReader(input))
	if err != nil {
		return nil, fmt.Errorf("reference read: %w", err)
	}
	var set fim.ResultSet
	if err := fim.Mine(db, fim.Options{MinSupport: minsup, Algorithm: algo}, set.Collect()); err != nil {
		return nil, fmt.Errorf("reference mine (%s): %w", algo, err)
	}
	return &set, nil
}

// checkJob counts a failed job into s: one that returned an error, or
// whose written output does not fingerprint as the reference.
func checkJob(s *sampler, err error, out []byte, ref digest) bool {
	if err != nil {
		s.fail("job: %v", err)
		return false
	}
	if got := digestOfOutput(out); got != ref {
		s.fail("job output %d patterns digest %x, reference %d patterns digest %x", got.N, got.Sum, ref.N, ref.Sum)
		return false
	}
	return true
}

// runBatch computes the reference once, untimed, and measures jobs
// between set-ups that regenerate the input and warm up.
func runBatch(spec batchSpec, cfg config) (*outcome, error) {
	// The reference depends only on the input, which every set-up
	// regenerates identically.
	input := seeded(spec.base(), cfg.seed)
	refSet, err := reference(input, spec.ref, spec.minsup)
	if err != nil {
		return nil, err
	}
	ref := digestOfSet(refSet, 1)

	var out bytes.Buffer
	setUp := func() (func() error, error) {
		input = seeded(spec.base(), cfg.seed)
		for j := 0; j < cfg.warmups; j++ {
			if _, err := job(input, spec.algo, spec.minsup, &out, nil, 0); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return nil, nil
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var jobs []jobTrace
	var mirrors []mirrorOut
	op := 0
	o := newOutcome(cfg)
	err = o.measure(setUp, func(s *sampler) {
		op++
		s.calibrate()
		runtime.GC()
		var err error
		s.time("job", func() { _, err = job(input, spec.algo, spec.minsup, &out, nil, op) })
		checkJob(s, err, out.Bytes(), ref)
		if !cfg.trace {
			return
		}

		op++
		s.calibrate()
		runtime.GC()
		var jt jobTrace
		s.time("job"+tracedKind, func() { jt, err = job(input, spec.algo, spec.minsup, &out, tr, op) })
		if !checkJob(s, err, out.Bytes(), ref) {
			return
		}
		jobs = append(jobs, jt)
		if spec.algo == fim.IsTa {
			m, err := mirrorIsTa(input, spec.minsup, tr, op)
			if err == nil {
				err = m.agrees(digestOfOutput(out.Bytes()), jt.stats)
			}
			if err != nil {
				s.fail("core mirror: %v", err)
				return
			}
			mirrors = append(mirrors, m)
		}
	})
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		o.endToEnd("job")
		return o, nil
	}
	o.perLayerJobs("job", jobs)
	if spec.algo == fim.IsTa {
		o.perLayerCore(jobs, mirrors)
	}
	return o, o.writeTrace(tr)
}
