// Package testutil holds the result-normalization and comparison helpers
// shared by the repo's differential tests and the fuzzsql harness. Results
// from two engines (or two configurations of one engine) are compared
// under a canonical normalization:
//
//   - rows are order-insensitive: both sides are sorted by a canonical
//     per-row key before comparison;
//   - NULL-aware: NULL equals NULL and sorts deterministically;
//   - float-tolerant: float cells match under a combined absolute /
//     relative / ULP tolerance, absorbing summation-order differences
//     between partitioned, spilled, and morsel-parallel execution; NaN
//     equals NaN.
//
// These helpers were promoted from internal/exec's aggregation
// differential test so every differential surface (TPC-H golden tests,
// fuzzsql, workload comparisons) shares one definition of "equal".
package testutil

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"gofusion/internal/arrow"
)

// Float tolerance: values are equal when within AbsTol, within RelTol
// relatively, or within ULPTol representable values of each other.
const (
	AbsTol = 1e-6
	RelTol = 1e-9
	ULPTol = 64
)

// Row is one normalized result row.
type Row struct {
	// Key is the canonical sort/compare key (floats rounded).
	Key string
	// Cells are the raw cell values, for tolerance-aware comparison.
	Cells []arrow.Scalar
}

// NormalizeBatch renders a record batch into canonically sorted rows.
func NormalizeBatch(b *arrow.RecordBatch) []Row {
	rows := make([]Row, b.NumRows())
	ncols := b.NumCols()
	for i := range rows {
		cells := make([]arrow.Scalar, ncols)
		var key strings.Builder
		for c := 0; c < ncols; c++ {
			cells[c] = b.Column(c).GetScalar(i)
			key.WriteString(cellKey(cells[c]))
			key.WriteByte('|')
		}
		rows[i] = Row{Key: key.String(), Cells: cells}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].Key < rows[b].Key })
	return rows
}

// cellKey renders one cell for the sort key. Floats are rounded to six
// significant decimals so summation-order jitter does not reorder rows;
// the cell-level comparison below is tolerance-aware regardless.
func cellKey(s arrow.Scalar) string {
	if s.Null {
		return "NULL"
	}
	switch s.Type.ID {
	case arrow.FLOAT32, arrow.FLOAT64:
		f := s.AsFloat64()
		if math.IsNaN(f) {
			return "NaN"
		}
		return strconv.FormatFloat(f, 'e', 6, 64)
	case arrow.STRING:
		return strconv.Quote(s.AsString())
	default:
		return s.String()
	}
}

// FloatsEqual reports tolerance equality of two floats (NaN == NaN).
func FloatsEqual(a, b float64) bool {
	if a == b {
		return true
	}
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false // equal infinities already matched a == b above
	}
	diff := math.Abs(a - b)
	if diff <= AbsTol {
		return true
	}
	if diff <= RelTol*math.Max(math.Abs(a), math.Abs(b)) {
		return true
	}
	return ulpDistance(a, b) <= ULPTol
}

// ulpDistance counts representable float64 values between a and b.
func ulpDistance(a, b float64) uint64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.MaxUint64
	}
	ia, ib := int64(math.Float64bits(a)), int64(math.Float64bits(b))
	if ia < 0 {
		ia = math.MinInt64 - ia
	}
	if ib < 0 {
		ib = math.MinInt64 - ib
	}
	d := ia - ib
	if d < 0 {
		d = -d
	}
	return uint64(d)
}

// CellsEqual reports normalized equality of two cells.
func CellsEqual(a, b arrow.Scalar) bool {
	if a.Null || b.Null {
		return a.Null == b.Null
	}
	aFloat := a.Type.ID == arrow.FLOAT32 || a.Type.ID == arrow.FLOAT64
	bFloat := b.Type.ID == arrow.FLOAT32 || b.Type.ID == arrow.FLOAT64
	if aFloat && bFloat {
		return FloatsEqual(a.AsFloat64(), b.AsFloat64())
	}
	return cellKey(a) == cellKey(b)
}

// Diff compares two normalized row sets, returning "" when they match and
// a human-readable description of the first few differences otherwise.
func Diff(got, want []Row) string {
	if len(got) != len(want) {
		return fmt.Sprintf("row count differs: got %d, want %d\ngot:  %s\nwant: %s",
			len(got), len(want), sampleKeys(got), sampleKeys(want))
	}
	var diffs []string
	for i := range got {
		if len(got[i].Cells) != len(want[i].Cells) {
			return fmt.Sprintf("column count differs at row %d: got %d, want %d",
				i, len(got[i].Cells), len(want[i].Cells))
		}
		for c := range got[i].Cells {
			if !CellsEqual(got[i].Cells[c], want[i].Cells[c]) {
				diffs = append(diffs, fmt.Sprintf("row %d col %d: got %s, want %s",
					i, c, cellKey(got[i].Cells[c]), cellKey(want[i].Cells[c])))
				break
			}
		}
		if len(diffs) >= 6 {
			break
		}
	}
	if len(diffs) == 0 {
		return ""
	}
	return strings.Join(diffs, "\n")
}

// DiffBatches normalizes and compares two batches in one step.
func DiffBatches(got, want *arrow.RecordBatch) string {
	return Diff(NormalizeBatch(got), NormalizeBatch(want))
}

// DiffOrdered compares two batches row by row in their given order, for
// results whose order is part of the answer (ORDER BY); cells compare as in
// Diff.
func DiffOrdered(got, want *arrow.RecordBatch) string {
	if got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() {
		return fmt.Sprintf("shape differs: got %d rows x %d cols, want %d x %d",
			got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for i := 0; i < got.NumRows(); i++ {
		for c := 0; c < got.NumCols(); c++ {
			g, w := got.Column(c).GetScalar(i), want.Column(c).GetScalar(i)
			if !CellsEqual(g, w) {
				return fmt.Sprintf("row %d col %d: got %s, want %s", i, c, cellKey(g), cellKey(w))
			}
		}
	}
	return ""
}

func sampleKeys(rows []Row) string {
	n := len(rows)
	if n > 4 {
		n = 4
	}
	keys := make([]string, n)
	for i := 0; i < n; i++ {
		keys[i] = rows[i].Key
	}
	s := strings.Join(keys, " ; ")
	if len(rows) > 4 {
		s += " ..."
	}
	return s
}
