package result

import (
	"cmp"
	"slices"
	"sort"
	"strconv"

	"repro/internal/itemset"
)

// CFITree (closed frequent item set tree) is the repository used by the
// FP-close style miners (fpclose, cobbler) and the maximal and subsume
// filters to answer the subsumption query "is there an already stored
// set Y ⊇ X with support s?" — which, by the apriori property, is
// equivalent to supp(Y) ≥ s for supersets Y of a set X with supp(X) = s.
// It follows the role of the CFI-tree in Grahne & Zhu's FPclose.
//
// Sets are stored along root-to-node paths with item codes strictly
// ascending. Every node caches the maximum support of any terminal set in
// its subtree, which prunes the subsumption search. Each node's children
// are kept sorted by ascending item, so the search visits them in order
// and stops at the first child item above the one it needs.
type CFITree struct {
	root  cfiNode
	n     int
	nodes int
}

type cfiNode struct {
	// kids is sorted by strictly ascending item.
	kids []cfiChild
	// maxSupp is the maximum support of any stored set whose path passes
	// through or ends in this subtree.
	maxSupp int
	// termSupp is the support of the set ending exactly here (0 = none;
	// valid because stored supports are always ≥ 1).
	termSupp int
}

type cfiChild struct {
	item itemset.Item
	node *cfiNode
}

// child returns the child of node for item it, creating it in its sorted
// position if it does not exist.
func (t *CFITree) child(node *cfiNode, it itemset.Item) *cfiNode {
	i, found := slices.BinarySearchFunc(node.kids, it, func(c cfiChild, it itemset.Item) int {
		return cmp.Compare(c.item, it)
	})
	if found {
		return node.kids[i].node
	}
	next := &cfiNode{}
	node.kids = slices.Insert(node.kids, i, cfiChild{it, next})
	t.nodes++
	return next
}

// Len returns the number of stored sets.
func (t *CFITree) Len() int { return t.n }

// NodeCount returns the number of tree nodes below the root.
func (t *CFITree) NodeCount() int { return t.nodes }

// Insert stores items with the given support. Items must be canonical.
func (t *CFITree) Insert(items itemset.Set, support int) {
	node := &t.root
	if support > node.maxSupp {
		node.maxSupp = support
	}
	for _, it := range items {
		node = t.child(node, it)
		if support > node.maxSupp {
			node.maxSupp = support
		}
	}
	if support > node.termSupp {
		node.termSupp = support
	}
	t.n++
}

// Subsumed reports whether some stored set Y ⊇ items has support ≥
// support. A stored copy of items itself also counts (Y ⊇ X includes
// Y = X), which is what the closed-miner duplicate check needs.
func (t *CFITree) Subsumed(items itemset.Set, support int) bool {
	return subsumed(&t.root, items, support)
}

func subsumed(node *cfiNode, items itemset.Set, support int) bool {
	if node.maxSupp < support {
		return false
	}
	if len(items) == 0 {
		// All required items covered; any terminal set in this subtree
		// with sufficient support is a superset.
		return maxTerm(node) >= support
	}
	want := items[0]
	for _, c := range node.kids {
		if c.item > want {
			// Paths are ascending, so `want` cannot occur below this
			// child or any later one.
			break
		}
		if c.item == want {
			// Every later child's item is above want.
			return subsumed(c.node, items[1:], support)
		}
		if subsumed(c.node, items, support) {
			return true
		}
	}
	return false
}

func maxTerm(node *cfiNode) int {
	best := node.termSupp
	for _, c := range node.kids {
		if node.maxSupp <= best {
			break
		}
		if v := maxTerm(c.node); v > best {
			best = v
		}
	}
	return best
}

// SubsumeFilter accumulates closure candidates and, at emit time, keeps
// exactly the candidates that are maximal within their support group:
// a candidate (X, s) is discarded iff some other candidate (Y, s) with
// Y ⊋ X exists. Since every closed set occurs among the candidates and a
// non-closed candidate always has a closed strict superset with the same
// support, the surviving candidates are precisely the closed sets.
type SubsumeFilter struct {
	bySupport map[int][]itemset.Set
	seen      map[string]bool // dedup on (items, support)
}

// NewSubsumeFilter returns an empty filter.
func NewSubsumeFilter() *SubsumeFilter {
	return &SubsumeFilter{
		bySupport: make(map[int][]itemset.Set),
		seen:      make(map[string]bool),
	}
}

// Add records a closure candidate. The items are copied. Duplicate
// candidates collapse.
func (f *SubsumeFilter) Add(items itemset.Set, support int) {
	k := strconv.Itoa(support) + "|" + items.Key()
	if f.seen[k] {
		return
	}
	f.seen[k] = true
	f.bySupport[support] = append(f.bySupport[support], items.Clone())
}

// Emit reports the maximal candidates per support group.
func (f *SubsumeFilter) Emit(rep Reporter) {
	supports := make([]int, 0, len(f.bySupport))
	for s := range f.bySupport {
		supports = append(supports, s)
	}
	sort.Ints(supports)
	for _, s := range supports {
		group := f.bySupport[s]
		// Longer sets cannot be subsumed by shorter ones; check each set
		// only against strictly longer sets via a per-group CFI tree.
		sort.Slice(group, func(i, j int) bool { return len(group[i]) > len(group[j]) })
		var tree CFITree
		for _, x := range group {
			// Subsumed by a previously inserted (longer or equal length)
			// set? Equal-length distinct sets cannot subsume each other,
			// and duplicates were collapsed in Add, so "⊇ with length ≥"
			// means proper superset here.
			if !tree.Subsumed(x, s) {
				rep.Report(x, s)
			}
			tree.Insert(x, s)
		}
	}
}
