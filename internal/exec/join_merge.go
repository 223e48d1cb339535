package exec

import (
	"bytes"

	"gofusion/internal/arrow"
	"gofusion/internal/logical"
	"gofusion/internal/physical"
	"gofusion/internal/rowformat"
)

// SortMergeJoinExec joins two inputs that are both sorted ascending on the
// join keys (paper Section 6.4/6.7) on the build and probe of joinCore,
// without a hash table: a probe row's candidates are the run of build rows
// with its key, which a cursor finds by advancing through the key-sorted
// build as the key-sorted probe advances.
type SortMergeJoinExec struct {
	joinCore
}

// NewSortMergeJoinExec computes the output schema.
func NewSortMergeJoinExec(left, right physical.ExecutionPlan, on []JoinOn, filter *JoinFilter, jt logical.JoinType) *SortMergeJoinExec {
	e := &SortMergeJoinExec{}
	e.init(e, "SortMergeJoinExec", left, right, on, filter, jt, nil, nil)
	return e
}

func (e *SortMergeJoinExec) with(left, right physical.ExecutionPlan, cols []int, schema *arrow.Schema) joinOp {
	j := &SortMergeJoinExec{}
	j.init(j, e.name, left, right, e.On, e.Filter, e.Type, cols, schema)
	return j
}

// OutputOrdering is the left input's order on the keys where the probe
// keeps it: inner pairs leave in probe key order, equal to the build key,
// and semi and anti joins emit build rows in build order. Outer joins emit
// their unmatched rows out of key order.
func (e *SortMergeJoinExec) OutputOrdering() []physical.SortField {
	switch e.Type {
	case logical.InnerJoin, logical.LeftSemiJoin, logical.LeftAntiJoin:
	default:
		return nil
	}
	ord := e.Left.OutputOrdering()
	var out []physical.SortField
	for i, p := range e.On {
		c, ok := p.L.(*physical.ColumnExpr)
		if !ok || i >= len(ord) || ord[i].Col != c.Index || ord[i].Descending {
			break
		}
		f := ord[i]
		if f.Col = e.emitted(true, c.Index); f.Col < 0 {
			break
		}
		out = append(out, f)
	}
	return out
}

// index encodes the build keys and chains each run of equal keys.
func (e *SortMergeJoinExec) index(bt *builtTable) (func(int) lookupFn, error) {
	build, probe := joinKeyExprs(e.On)
	keys, err := encodeJoinKeys(build, bt.batch)
	if err != nil {
		return nil, err
	}
	n := bt.batch.NumRows()
	size := 28 * int64(n)
	for _, k := range keys {
		size += int64(len(k))
	}
	if err := bt.res.Grow(size); err != nil {
		return nil, err
	}
	bt.next = make([]int32, n)
	for i, k := range keys {
		bt.next[i] = -1
		if k != nil && i+1 < n && bytes.Equal(k, keys[i+1]) {
			bt.next[i] = int32(i + 1)
		}
	}
	return func(int) lookupFn { return mergeLookup(probe, keys) }, nil
}

// mergeLookup finds a probe key's run with a cursor into the key-sorted
// build keys that advances with the key-sorted probe. NULL keys, wherever
// the build sorts them, match nothing and are stepped over.
func mergeLookup(probe []physical.PhysicalExpr, keys [][]byte) lookupFn {
	cursor := 0
	return func(rb *arrow.RecordBatch, first []int32) error {
		pk, err := encodeJoinKeys(probe, rb)
		if err != nil {
			return err
		}
		for i, k := range pk {
			first[i] = -1
			if k == nil {
				continue
			}
			for cursor < len(keys) && (keys[cursor] == nil || bytes.Compare(keys[cursor], k) < 0) {
				cursor++
			}
			if cursor < len(keys) && bytes.Equal(keys[cursor], k) {
				first[i] = int32(cursor)
			}
		}
		return nil
	}
}

// encodeJoinKeys encodes each row's key with the row format, so equality
// is one byte comparison, and so is order over inputs sorted ascending on
// the key; rows with NULL in any key column get a nil key (they can never
// match).
func encodeJoinKeys(exprs []physical.PhysicalExpr, b *arrow.RecordBatch) ([][]byte, error) {
	types := make([]*arrow.DataType, len(exprs))
	cols := make([]arrow.Array, len(exprs))
	for i, x := range exprs {
		a, err := physical.EvalToArray(x, b, nil)
		if err != nil {
			return nil, err
		}
		types[i], cols[i] = x.DataType(), a
	}
	enc, err := rowformat.NewEncoder(types, nil)
	if err != nil {
		return nil, err
	}
	keys := enc.EncodeRows(cols, b.NumRows())
	for i := range keys {
		for _, c := range cols {
			if c.IsNull(i) {
				keys[i] = nil
				break
			}
		}
	}
	return keys, nil
}
