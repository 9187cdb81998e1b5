package fim

import (
	"io"

	"repro/internal/gendata"
	"repro/internal/txdb"
)

// The synthetic workload generators stand in for the paper's evaluation
// data sets (which are not redistributable); see DESIGN.md §3 for the
// substitution rationale. All generators are deterministic in their seed.

// GenYeast generates a yeast-compendium-like database in the Figure 5
// orientation: few transactions (conditions), very many items
// (gene/polarity pairs). Scale 1 approximates the paper's 300 × ~12,000.
func GenYeast(scale float64, seed int64) *Database { return gendata.Yeast(scale, seed) }

// GenNCBI60 generates an NCBI60-like database: 60 cell-line transactions
// with items frequent in most of them (the Figure 6 regime).
func GenNCBI60(scale float64, seed int64) *Database { return gendata.NCBI60(scale, seed) }

// GenThrombin generates a thrombin-like database: 64 transactions over a
// very wide, sparse, block-correlated binary feature space (Figure 7).
// Scale 1 gives the paper's 139,351 features.
func GenThrombin(scale float64, seed int64) *Database { return gendata.Thrombin(scale, seed) }

// GenWebView generates a transposed clickstream database like the
// transposed BMS-WebView-1 of Figure 8.
func GenWebView(scale float64, seed int64) *Database { return gendata.WebView(scale, seed) }

// QuestConfig parameterises GenQuest.
type QuestConfig = gendata.QuestConfig

// GenQuest generates a classic market-basket database (many transactions,
// few items) in the spirit of the IBM Quest generator.
func GenQuest(cfg QuestConfig) *Database { return gendata.Quest(cfg) }

// ExpressionConfig parameterises GenExpression.
type ExpressionConfig = gendata.ExpressionConfig

// ExpressionMatrix is a synthetic genes × conditions log-ratio matrix.
type ExpressionMatrix = gendata.Matrix

// GenExpression generates a synthetic gene expression matrix with
// co-regulated modules (§4 of the paper describes the real counterpart).
func GenExpression(cfg ExpressionConfig) *ExpressionMatrix { return gendata.Expression(cfg) }

// Orientation selects how Discretize turns a matrix into transactions.
type Orientation = gendata.Orientation

// Discretization orientations (§4: the matrix "may also be transposed").
const (
	GenesAsTransactions      = gendata.GenesAsTransactions
	ConditionsAsTransactions = gendata.ConditionsAsTransactions
)

// Discretize converts an expression matrix into a Boolean transaction
// database with the paper's over-/under-expression thresholds: values
// above hi become "over-expressed" items, values below -lo become
// "under-expressed" items (the paper uses hi = lo = 0.2).
func Discretize(m *ExpressionMatrix, hi, lo float64, orient Orientation) *Database {
	return gendata.Discretize(m, hi, lo, orient)
}

// ReadMatrixCSV loads an expression matrix from CSV/TSV text (one gene
// per row, one numeric column per condition; label headers are skipped).
// Together with Discretize it completes the §4 pipeline for real data.
func ReadMatrixCSV(r io.Reader) (*ExpressionMatrix, error) { return gendata.ReadMatrixCSV(r) }

// WriteMatrixCSV renders an expression matrix as CSV.
func WriteMatrixCSV(w io.Writer, m *ExpressionMatrix) error { return gendata.WriteMatrixCSV(w, m) }

// Stats summarises the shape of a database (any Source).
type Stats = txdb.Stats

// StatsOf computes the summary statistics of any database.
func StatsOf(db Source) Stats { return txdb.StatsOf(db) }

// TotalWeight returns the weighted transaction count of any database —
// the denominator for relative support thresholds. For databases without
// merged duplicates it equals the number of rows.
func TotalWeight(db Source) int { return txdb.TotalWeightOf(db) }
