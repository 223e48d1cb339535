package parquet

import (
	"gofusion/internal/arrow"
)

// Predicate is the pushdown contract between the engine and the reader.
// The engine supplies an implementation wrapping its physical expressions;
// the reader uses it for row-group pruning (chunk statistics and Bloom
// filters), page pruning, and final row-level evaluation during late
// materialization.
type Predicate interface {
	// Columns returns the file-schema column indexes the predicate reads.
	Columns() []int
	// Evaluate evaluates the predicate over the given columns (keyed by
	// file-schema index, each with numRows rows; the map holds at least
	// the Columns() and is only valid for the call), returning a boolean
	// mask.
	Evaluate(cols map[int]arrow.Array, numRows int) (*arrow.BoolArray, error)
	// KeepColumnStats reports whether rows in a container with the given
	// per-column statistics might satisfy the predicate. Implementations
	// must be conservative: return true when unsure.
	KeepColumnStats(col int, stats ColumnStats) bool
	// EqProbes returns conjunctive equality requirements (col = literal)
	// suitable for Bloom filter probing, or nil.
	EqProbes() []EqProbe
}

// EqProbe states that the predicate requires column Col to equal Value.
type EqProbe struct {
	Col   int
	Value arrow.Scalar
}

// StatsKeepCompare is a helper for implementations: given min/max bounds,
// it reports whether any value in [min, max] can satisfy `value <op> lit`.
func StatsKeepCompare(op string, stats ColumnStats, lit arrow.Scalar) bool {
	if !stats.HasMinMax || lit.Null {
		return true
	}
	mn, mx := stats.Min, stats.Max
	if mn.Null || mx.Null {
		return true
	}
	if mn.Type.ID != lit.Type.ID {
		return true
	}
	switch op {
	case "=":
		return !scalarLess(lit, mn) && !scalarLess(mx, lit)
	case "!=":
		// Prunable only when every value equals lit (min == lit == max).
		allEqual := !scalarLess(mn, lit) && !scalarLess(lit, mn) &&
			!scalarLess(mx, lit) && !scalarLess(lit, mx)
		return !allEqual
	case "<":
		return scalarLess(mn, lit)
	case "<=":
		return !scalarLess(lit, mn)
	case ">":
		return scalarLess(lit, mx)
	case ">=":
		return !scalarLess(mx, lit)
	}
	return true
}
