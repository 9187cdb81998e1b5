// Cross-check and race every registered closed-set miner but the flat
// baseline on the same workload: a thrombin-like wide binary database
// (the Figure 7 regime). Every algorithm must produce exactly the same
// closed frequent item sets; the example verifies that and prints the
// timing spread, which is the paper's story in miniature.
//
// Run with: go run ./examples/compare
package main

import (
	"fmt"
	"log"
	"time"

	fim "repro"
)

func main() {
	db := fim.GenThrombin(0.01, 11)
	minsup := 34
	fmt.Printf("workload: %s, minsup %d\n\n", db.Stats(), minsup)

	type outcome struct {
		algo fim.Algorithm
		set  *fim.ResultSet
		time time.Duration
	}
	var outcomes []outcome
	for _, algo := range fim.Algorithms() {
		if algo == fim.FlatCumulative {
			// The flat repository keeps every closed set of the processed
			// prefix regardless of support; on this workload that is
			// orders of magnitude more state than the minimum support
			// needs, and the run does not finish in reasonable time —
			// which is precisely why the paper replaces it with the
			// prefix tree (see the `fimbench -exp flat` experiment).
			fmt.Printf("%-18s skipped (see comment in source)\n\n", algo)
			continue
		}
		var set fim.ResultSet
		start := time.Now()
		err := fim.Mine(db, fim.Options{MinSupport: minsup, Algorithm: algo}, set.Collect())
		if err != nil {
			log.Fatalf("%s: %v", algo, err)
		}
		outcomes = append(outcomes, outcome{algo, &set, time.Since(start)})
	}

	ref := outcomes[0]
	fmt.Printf("%-18s %10s  %9s  %s\n", "algorithm", "time", "#closed", "agrees")
	for _, o := range outcomes {
		agrees := o.set.Equal(ref.set)
		fmt.Printf("%-18s %10s  %9d  %v\n", o.algo, o.time.Round(time.Microsecond), o.set.Len(), agrees)
		if !agrees {
			log.Fatalf("%s disagrees with %s:\n%s", o.algo, ref.algo, o.set.Diff(ref.set, 10))
		}
	}

	fmt.Println("\nall algorithms produced the identical closed frequent item sets")
	fastest, slowest := outcomes[0], outcomes[0]
	for _, o := range outcomes[1:] {
		if o.time < fastest.time {
			fastest = o
		}
		if o.time > slowest.time {
			slowest = o
		}
	}
	fmt.Printf("fastest: %s (%s), slowest: %s (%s) — %.1fx spread\n",
		fastest.algo, fastest.time.Round(time.Microsecond),
		slowest.algo, slowest.time.Round(time.Microsecond),
		float64(slowest.time)/float64(fastest.time))
}
