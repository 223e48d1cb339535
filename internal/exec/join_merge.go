package exec

import (
	"bytes"
	"fmt"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/logical"
	"gofusion/internal/physical"
	"gofusion/internal/rowformat"
)

// SortMergeJoinExec joins two inputs that are both sorted ascending on the
// join keys (paper Section 6.4/6.7). It avoids hash table construction and
// preserves the key ordering of its output.
type SortMergeJoinExec struct {
	physical.OpMetrics
	Left   physical.ExecutionPlan
	Right  physical.ExecutionPlan
	On     []JoinOn
	Type   logical.JoinType // Inner, Left, Right
	schema *arrow.Schema
}

// NewSortMergeJoinExec computes the output schema.
func NewSortMergeJoinExec(left, right physical.ExecutionPlan, on []JoinOn, jt logical.JoinType) (*SortMergeJoinExec, error) {
	switch jt {
	case logical.InnerJoin, logical.LeftJoin, logical.RightJoin, logical.LeftSemiJoin, logical.LeftAntiJoin:
	default:
		return nil, fmt.Errorf("exec: sort merge join does not support %s", jt)
	}
	return &SortMergeJoinExec{Left: left, Right: right, On: on, Type: jt,
		schema: joinOutputSchema(left.Schema(), right.Schema(), jt)}, nil
}

func (e *SortMergeJoinExec) Schema() *arrow.Schema { return e.schema }
func (e *SortMergeJoinExec) Children() []physical.ExecutionPlan {
	return []physical.ExecutionPlan{e.Left, e.Right}
}
func (e *SortMergeJoinExec) Partitions() int { return 1 }
func (e *SortMergeJoinExec) OutputOrdering() []physical.SortField {
	// Output preserves the left key order for bare-column keys.
	var out []physical.SortField
	for _, p := range e.On {
		c, ok := p.L.(*physical.ColumnExpr)
		if !ok {
			return nil
		}
		out = append(out, physical.SortField{Col: c.Index})
	}
	return out
}
func (e *SortMergeJoinExec) String() string {
	return fmt.Sprintf("SortMergeJoinExec: type=%s on=%d keys", e.Type, len(e.On))
}
func (e *SortMergeJoinExec) WithChildren(ch []physical.ExecutionPlan) (physical.ExecutionPlan, error) {
	if len(ch) != 2 {
		return nil, fmt.Errorf("exec: join takes 2 children")
	}
	return NewSortMergeJoinExec(ch[0], ch[1], e.On, e.Type)
}

// mergeSide is one materialized, key-encoded input.
type mergeSide struct {
	batch *arrow.RecordBatch
	keys  [][]byte
}

func (e *SortMergeJoinExec) loadSide(ctx *physical.ExecContext, plan physical.ExecutionPlan, exprs []physical.PhysicalExpr) (*mergeSide, error) {
	batches, err := CollectPlan(ctx, &CoalescePartitionsExec{Input: plan})
	if err != nil {
		return nil, err
	}
	batch, err := compute.ConcatBatches(plan.Schema(), batches)
	if err != nil {
		return nil, err
	}
	enc, err := joinKeyEncoderFromExprs(exprs)
	if err != nil {
		return nil, err
	}
	var keys [][]byte
	if batch.NumRows() > 0 {
		keys, err = encodeJoinKeys(enc, exprs, batch)
		if err != nil {
			return nil, err
		}
	}
	return &mergeSide{batch: batch, keys: keys}, nil
}

func joinKeyEncoderFromExprs(exprs []physical.PhysicalExpr) (*rowformat.Encoder, error) {
	types := make([]*arrow.DataType, len(exprs))
	for i, x := range exprs {
		types[i] = x.DataType()
	}
	return rowformat.NewEncoder(types, nil)
}

func (e *SortMergeJoinExec) Execute(ctx *physical.ExecContext, partition int) (physical.Stream, error) {
	if partition != 0 {
		return nil, fmt.Errorf("exec: merge join has a single partition")
	}
	lex := make([]physical.PhysicalExpr, len(e.On))
	rex := make([]physical.PhysicalExpr, len(e.On))
	for i, p := range e.On {
		lex[i] = p.L
		rex[i] = p.R
	}
	left, err := e.loadSide(ctx, e.Left, lex)
	if err != nil {
		return nil, err
	}
	right, err := e.loadSide(ctx, e.Right, rex)
	if err != nil {
		return nil, err
	}
	m := e.Metrics()
	m.Counter("build_rows").Store(int64(left.batch.NumRows()))
	m.Counter("probe_rows").Store(int64(right.batch.NumRows()))

	var li, ri []int32
	nl, nr := left.batch.NumRows(), right.batch.NumRows()
	lm := make([]bool, nl)
	rm := make([]bool, nr)
	i, j := 0, 0
	for i < nl && j < nr {
		lk, rk := left.keys[i], right.keys[j]
		// NULL keys (nil) sort conceptually last and never match.
		if lk == nil {
			i++
			continue
		}
		if rk == nil {
			j++
			continue
		}
		c := bytes.Compare(lk, rk)
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			// Gather both equal-key runs and emit their product.
			i2 := i
			for i2 < nl && left.keys[i2] != nil && bytes.Equal(left.keys[i2], lk) {
				i2++
			}
			j2 := j
			for j2 < nr && right.keys[j2] != nil && bytes.Equal(right.keys[j2], rk) {
				j2++
			}
			for x := i; x < i2; x++ {
				lm[x] = true
				for y := j; y < j2; y++ {
					rm[y] = true
					li = append(li, int32(x))
					ri = append(ri, int32(y))
				}
			}
			i, j = i2, j2
		}
	}

	var out *arrow.RecordBatch
	switch e.Type {
	case logical.InnerJoin:
		out = combinedBatch(e.schema, left.batch, right.batch, li, ri)
	case logical.LeftJoin:
		for x := 0; x < nl; x++ {
			if !lm[x] {
				li = append(li, int32(x))
				ri = append(ri, -1)
			}
		}
		out = combinedBatch(e.schema, left.batch, right.batch, li, ri)
	case logical.RightJoin:
		for y := 0; y < nr; y++ {
			if !rm[y] {
				li = append(li, -1)
				ri = append(ri, int32(y))
			}
		}
		out = combinedBatch(e.schema, left.batch, right.batch, li, ri)
	case logical.LeftSemiJoin, logical.LeftAntiJoin:
		want := e.Type == logical.LeftSemiJoin
		var keep []int32
		for x := 0; x < nl; x++ {
			if lm[x] == want {
				keep = append(keep, int32(x))
			}
		}
		out = compute.TakeBatch(left.batch, keep)
	}

	return physical.InstrumentStream(NewFuncStream(e.schema, sliceNext(ctx, out), nil), m), nil
}

// encodeJoinKeys encodes each row's key with the row format, so equality
// is one byte comparison; rows with NULL in any key column get a nil key
// (they can never match).
func encodeJoinKeys(enc *rowformat.Encoder, exprs []physical.PhysicalExpr, b *arrow.RecordBatch) ([][]byte, error) {
	cols := make([]arrow.Array, len(exprs))
	for i, x := range exprs {
		a, err := physical.EvalToArray(x, b, nil)
		if err != nil {
			return nil, err
		}
		cols[i] = a
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
