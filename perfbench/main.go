// Command perfbench is the repository's benchmark. Each run sets one
// workload up from a seed, measures it for a fixed time on one core,
// checks every operation's output against a reference from an
// independent miner, and prints one JSON result line:
//
//	perfbench --workload paper --seed 1 --seconds 22 --trace 0
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// of a separate traced run. --workload all runs every workload in turn.
// The workloads and the metrics with their units are declared in
// BENCHMARK.json (--spec); README.md explains them, and run.sh builds the
// command from the checkout and runs it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run, as named in the spec, or all")
	seed := fs.Int64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Int("seconds", 22, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark's declaration of workloads and metrics")
	workdir := fs.String("workdir", ".bench_build/perfbench-work", "directory for the service's stores and the trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds < 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: want --trace 0|1, --seconds >= 1 and no arguments")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	names := []string{*workload}
	if *workload == "all" {
		names = spec.workloads()
	}

	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	// One core: on a shared two-core machine a second P lets the
	// collector and the scheduler interfere with the measured work.
	runtime.GOMAXPROCS(1)
	env := map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"store_fs":   fsType(*workdir),
	}
	envLine, _ := json.Marshal(env) // a map of strings and ints always marshals
	fmt.Fprintf(stdout, "# env %s\n", envLine)

	for _, name := range names {
		cfg := config{
			workload: name,
			seed:     *seed,
			dur:      time.Duration(*seconds) * time.Second,
			trace:    *trace == 1,
			minOps:   100,
			setups:   setups(*trace == 1),
			warmups:  1,
			workdir:  *workdir,
			stderr:   stderr,
		}
		line, err := runWorkload(spec, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench %s: %v\n", name, err)
			return 1
		}
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench %s: %v\n", name, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", b)
	}
	return 0
}

// setups is how many times a run sets its workload up. An untraced run
// spreads twenty set-ups through its measured time so that setup_s, their
// median, sees the same host conditions as the operations do; a traced
// run does not report setup_s and sets up once.
func setups(trace bool) int {
	if trace {
		return 1
	}
	return 20
}

// runWorkload runs one workload and assembles its result line.
func runWorkload(spec *benchSpec, cfg config) (*resultLine, error) {
	var o *outcome
	var err error
	if b, ok := batches[cfg.workload]; ok {
		o, err = runBatch(b, cfg)
	} else if cfg.workload == "serve" {
		o, err = runServe(cfg)
	} else {
		err = fmt.Errorf("unknown workload %q (want one of %v or all)", cfg.workload, spec.workloads())
	}
	if err != nil {
		return nil, err
	}
	if o.s.attempted == 0 {
		return nil, errors.New("no operation ran")
	}
	decl := spec.EndToEnd
	if cfg.trace {
		decl = spec.PerLayer
	}
	return &resultLine{
		Correct:   o.s.failed == 0,
		Attempted: o.s.attempted,
		Failed:    o.s.failed,
		Metrics:   report(decl, o.vals),
	}, nil
}
