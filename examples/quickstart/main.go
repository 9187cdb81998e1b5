// Quickstart: mine closed frequent item sets from a small in-memory
// database with IsTa, inspect them, and derive association rules.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	fim "repro"
)

func main() {
	// The example transaction database from Table 1 of the paper, with
	// items a=0, b=1, c=2, d=3, e=4.
	db := fim.NewDatabase([][]int{
		{0, 1, 2},    // a b c
		{0, 3, 4},    // a d e
		{1, 2, 3},    // b c d
		{0, 1, 2, 3}, // a b c d
		{1, 2},       // b c
		{0, 1, 3},    // a b d
		{3, 4},       // d e
		{2, 3, 4},    // c d e
	})
	names := []string{"a", "b", "c", "d", "e"}

	// Closed frequent item sets at minimum support 3 (IsTa, the paper's
	// cumulative intersection algorithm).
	closed, err := fim.MineClosed(db, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("closed frequent item sets (minsup 3): %d\n", closed.Len())
	for _, p := range closed.Patterns {
		fmt.Printf("  %s  support %d\n", render(p.Items, names), p.Support)
	}

	// The same result via transaction set enumeration (Carpenter) — every
	// algorithm in the library produces the identical pattern set.
	var viaCarpenter fim.ResultSet
	err = fim.Mine(db, fim.Options{MinSupport: 3, Algorithm: fim.CarpenterTable}, viaCarpenter.Collect())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("carpenter agrees: %v\n", viaCarpenter.Equal(closed))

	// Closed sets preserve all support information, so association rules
	// can be derived from them directly.
	rules := fim.Rules(closed, db.NumTx(), fim.RuleOptions{MinConfidence: 0.7})
	fmt.Printf("\nassociation rules with confidence >= 0.7: %d\n", len(rules))
	for _, r := range rules {
		fmt.Printf("  %s -> %s  (support %d, confidence %.2f, lift %.2f)\n",
			render(r.Antecedent, names), render(r.Consequent, names),
			r.Support, r.Confidence, r.Lift)
	}
}

func render(s fim.ItemSet, names []string) string {
	out := ""
	for i, it := range s {
		if i > 0 {
			out += " "
		}
		out += names[it]
	}
	return "{" + out + "}"
}
