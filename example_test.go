package fim_test

import (
	"fmt"

	fim "repro"
)

// The example transaction database from Table 1 of the paper
// (a=0, b=1, c=2, d=3, e=4).
func exampleDB() *fim.Database {
	return fim.NewDatabase([][]int{
		{0, 1, 2}, {0, 3, 4}, {1, 2, 3}, {0, 1, 2, 3},
		{1, 2}, {0, 1, 3}, {3, 4}, {2, 3, 4},
	})
}

func ExampleMineClosed() {
	closed, err := fim.MineClosed(exampleDB(), 4)
	if err != nil {
		panic(err)
	}
	for _, p := range closed.Patterns {
		fmt.Printf("%v support %d\n", p.Items, p.Support)
	}
	// Output:
	// {0} support 4
	// {1} support 5
	// {2} support 5
	// {3} support 6
	// {1 2} support 4
}

func ExampleMine() {
	// Any algorithm produces the identical closed sets; here Carpenter's
	// table-based transaction set enumeration.
	var set fim.ResultSet
	err := fim.Mine(exampleDB(), fim.Options{
		MinSupport: 4,
		Algorithm:  fim.CarpenterTable,
	}, set.Collect())
	if err != nil {
		panic(err)
	}
	set.Sort()
	fmt.Println(set.Len(), "closed sets")
	// Output:
	// 5 closed sets
}

func ExampleRules() {
	db := exampleDB()
	closed, err := fim.MineClosed(db, 1)
	if err != nil {
		panic(err)
	}
	rules := fim.Rules(closed, db.NumTx(), fim.RuleOptions{MinConfidence: 1.0})
	for _, r := range rules[:2] {
		fmt.Printf("%v -> %v (conf %.0f%%)\n", r.Antecedent, r.Consequent, 100*r.Confidence)
	}
	// Output:
	// {4} -> {3} (conf 100%)
	// {0 2} -> {1} (conf 100%)
}

func ExampleIncrementalMiner() {
	m := fim.NewIncrementalMiner(5)
	for _, t := range [][]fim.Item{{0, 1}, {0, 1, 2}, {1, 2}} {
		if err := m.Add(t...); err != nil {
			panic(err)
		}
	}
	closed := m.ClosedSet(2)
	for _, p := range closed.Patterns {
		fmt.Printf("%v support %d\n", p.Items, p.Support)
	}
	// Output:
	// {1} support 3
	// {0 1} support 2
	// {1 2} support 2
}

func ExampleTranspose() {
	// §4 of the paper: swapping the roles of items and transactions turns
	// a many-transactions/few-items problem into the few-transactions/
	// many-items regime that the intersection algorithms target.
	db := fim.NewDatabase([][]int{{0, 1}, {1, 2}})
	tr := fim.Transpose(db)
	fmt.Println(db.NumTx(), "x", db.NumItems(), "->", tr.NumTx(), "x", tr.NumItems())
	// Output:
	// 2 x 3 -> 3 x 2
}

func ExampleSupportIndex() {
	db := exampleDB()
	closed, _ := fim.MineClosed(db, 1)
	idx := fim.NewSupportIndex(closed, db.NumTx())
	// {a,c} is not closed, but its support is recoverable from the closed
	// collection (§2.3 of the paper).
	supp, ok := idx.Support(fim.NewItemSet(0, 2))
	fmt.Println(supp, ok)
	// Output:
	// 2 true
}
