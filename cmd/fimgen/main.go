// Command fimgen writes synthetic transaction databases shaped like the
// paper's evaluation data sets (see DESIGN.md §3) in FIMI format.
//
// Usage:
//
//	fimgen -kind yeast -scale 0.15 -seed 1 -out yeast.dat
//	fimgen -kind quest -items 500 -trans 10000 -out baskets.dat
//	fimgen -kind thrombin -scale 1 -out thrombin.dat   # full 139k features
//	fimgen -kind yeast -transpose -out yeast-by-gene.dat
package main

import (
	"flag"
	"fmt"
	"os"

	fim "repro"
)

func main() {
	var (
		kind      = flag.String("kind", "yeast", "workload: yeast | ncbi60 | thrombin | webview | quest")
		scale     = flag.Float64("scale", 0.15, "size relative to the paper's data set (yeast/ncbi60/thrombin/webview)")
		seed      = flag.Int64("seed", 1, "generator seed (same seed, same data)")
		out       = flag.String("out", "", "output file (default stdout)")
		transpose = flag.Bool("transpose", false, "transpose before writing (swap items and transactions)")

		items    = flag.Int("items", 500, "quest: number of items")
		trans    = flag.Int("trans", 10000, "quest: number of transactions")
		avgLen   = flag.Int("avglen", 10, "quest: average transaction length")
		patterns = flag.Int("patterns", 50, "quest: number of base patterns")
	)
	flag.Parse()

	var db *fim.Database
	switch *kind {
	case "yeast":
		db = fim.GenYeast(*scale, *seed)
	case "ncbi60":
		db = fim.GenNCBI60(*scale, *seed)
	case "thrombin":
		db = fim.GenThrombin(*scale, *seed)
	case "webview":
		db = fim.GenWebView(*scale, *seed)
	case "quest":
		db = fim.GenQuest(fim.QuestConfig{
			Items: *items, Transactions: *trans, AvgLen: *avgLen,
			Patterns: *patterns, AvgPatternLen: 4, Seed: *seed,
		})
	default:
		fmt.Fprintf(os.Stderr, "fimgen: unknown kind %q\n", *kind)
		os.Exit(2)
	}
	if *transpose {
		db = fim.Transpose(db)
	}

	fmt.Fprintf(os.Stderr, "fimgen: %s\n", db.Stats())
	if *out == "" {
		if err := fim.Write(os.Stdout, db); err != nil {
			fail(err)
		}
		return
	}
	if err := fim.WriteFile(*out, db); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fimgen:", err)
	os.Exit(1)
}
