package exec

import (
	"fmt"
	"io"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/logical"
	"gofusion/internal/physical"
)

// NestedLoopJoinExec evaluates an arbitrary join condition by pairing
// every left row with every probe batch (paper Section 6.4). It handles
// the non-equi joins the hash join cannot. The left input is materialized.
type NestedLoopJoinExec struct {
	physical.OpMetrics
	Left   physical.ExecutionPlan
	Right  physical.ExecutionPlan
	Filter physical.PhysicalExpr // nil = cross join
	Type   logical.JoinType
	schema *arrow.Schema
}

// NewNestedLoopJoinExec computes the output schema.
func NewNestedLoopJoinExec(left, right physical.ExecutionPlan, filter physical.PhysicalExpr, jt logical.JoinType) *NestedLoopJoinExec {
	return &NestedLoopJoinExec{Left: left, Right: right, Filter: filter, Type: jt,
		schema: joinOutputSchema(left.Schema(), right.Schema(), jt)}
}

func (e *NestedLoopJoinExec) Schema() *arrow.Schema { return e.schema }
func (e *NestedLoopJoinExec) Children() []physical.ExecutionPlan {
	return []physical.ExecutionPlan{e.Left, e.Right}
}
func (e *NestedLoopJoinExec) Partitions() int                      { return 1 }
func (e *NestedLoopJoinExec) OutputOrdering() []physical.SortField { return nil }
func (e *NestedLoopJoinExec) String() string {
	s := fmt.Sprintf("NestedLoopJoinExec: type=%s", e.Type)
	if e.Filter != nil {
		s += " filter=" + e.Filter.String()
	}
	return s
}
func (e *NestedLoopJoinExec) WithChildren(ch []physical.ExecutionPlan) (physical.ExecutionPlan, error) {
	if len(ch) != 2 {
		return nil, fmt.Errorf("exec: join takes 2 children")
	}
	return NewNestedLoopJoinExec(ch[0], ch[1], e.Filter, e.Type), nil
}

func (e *NestedLoopJoinExec) Execute(ctx *physical.ExecContext, partition int) (physical.Stream, error) {
	if partition != 0 {
		return nil, fmt.Errorf("exec: nested loop join has a single partition")
	}
	leftBatches, err := CollectPlan(ctx, e.Left)
	if err != nil {
		return nil, err
	}
	left, err := compute.ConcatBatches(e.Left.Schema(), leftBatches)
	if err != nil {
		return nil, err
	}
	right := &CoalescePartitionsExec{Input: e.Right}
	rs, err := right.Execute(ctx, 0)
	if err != nil {
		return nil, err
	}

	leftVisited := make([]bool, left.NumRows())
	innerSchema := joinOutputSchema(e.Left.Schema(), e.Right.Schema(), logical.InnerJoin)
	probeDone := false
	tailEmitted := false
	m := e.Metrics()
	m.Counter("build_rows").Store(int64(left.NumRows()))
	probeRows := m.Counter("probe_rows")

	next := func() (*arrow.RecordBatch, error) {
		for {
			if probeDone {
				if tailEmitted {
					return nil, io.EOF
				}
				tailEmitted = true
				out := e.emitLeftTail(left, leftVisited)
				if out != nil && out.NumRows() > 0 {
					return out, nil
				}
				return nil, io.EOF
			}
			if err := checkCancel(ctx); err != nil {
				return nil, err
			}
			rb, err := rs.Next()
			if err == io.EOF {
				probeDone = true
				continue
			}
			if err != nil {
				return nil, err
			}
			if rb.NumRows() == 0 {
				continue
			}
			probeRows.Add(int64(rb.NumRows()))
			out, err := e.probe(left, rb, leftVisited, innerSchema)
			if err != nil {
				return nil, err
			}
			if out != nil && out.NumRows() > 0 {
				return out, nil
			}
		}
	}
	return physical.InstrumentStream(NewFuncStream(e.schema, next, rs.Close), m), nil
}

func (e *NestedLoopJoinExec) probe(left, rb *arrow.RecordBatch, leftVisited []bool, innerSchema *arrow.Schema) (*arrow.RecordBatch, error) {
	nl, nr := left.NumRows(), rb.NumRows()
	var li, ri []int32
	if e.Filter == nil {
		// Cross join: all pairs.
		for l := 0; l < nl; l++ {
			for r := 0; r < nr; r++ {
				li = append(li, int32(l))
				ri = append(ri, int32(r))
			}
		}
	} else {
		// Evaluate the filter left-row-at-a-time against the probe batch.
		for l := 0; l < nl; l++ {
			lcols := make([]arrow.Array, left.NumCols())
			rep := make([]int32, nr)
			for i := range rep {
				rep[i] = int32(l)
			}
			for c := 0; c < left.NumCols(); c++ {
				lcols[c] = compute.Take(left.Column(c), rep)
			}
			cb := arrow.NewRecordBatchWithRows(innerSchema, append(lcols, rb.Columns()...), nr)
			mask, err := physical.EvalPredicate(e.Filter, cb, nil)
			if err != nil {
				return nil, err
			}
			for r := 0; r < nr; r++ {
				if mask.IsValid(r) && mask.Value(r) {
					li = append(li, int32(l))
					ri = append(ri, int32(r))
				}
			}
		}
	}
	for _, l := range li {
		leftVisited[l] = true
	}

	switch e.Type {
	case logical.InnerJoin, logical.CrossJoin:
		if len(li) == 0 {
			return nil, nil
		}
		return combinedBatch(e.schema, left, rb, li, ri), nil
	case logical.LeftJoin:
		if len(li) == 0 {
			return nil, nil
		}
		return combinedBatch(e.schema, left, rb, li, ri), nil
	case logical.RightJoin, logical.FullJoin:
		matched := make([]bool, nr)
		for _, r := range ri {
			matched[r] = true
		}
		for r := 0; r < nr; r++ {
			if !matched[r] {
				li = append(li, -1)
				ri = append(ri, int32(r))
			}
		}
		if len(li) == 0 {
			return nil, nil
		}
		return combinedBatch(e.schema, left, rb, li, ri), nil
	case logical.LeftSemiJoin, logical.LeftAntiJoin:
		return nil, nil // emitted at end from leftVisited
	case logical.RightSemiJoin, logical.RightAntiJoin:
		matched := make([]bool, nr)
		for _, r := range ri {
			matched[r] = true
		}
		want := e.Type == logical.RightSemiJoin
		var keep []int32
		for r := 0; r < nr; r++ {
			if matched[r] == want {
				keep = append(keep, int32(r))
			}
		}
		if len(keep) == 0 {
			return nil, nil
		}
		return compute.TakeBatch(rb, keep), nil
	}
	return nil, fmt.Errorf("exec: unsupported nested loop join type %s", e.Type)
}

func (e *NestedLoopJoinExec) emitLeftTail(left *arrow.RecordBatch, visited []bool) *arrow.RecordBatch {
	switch e.Type {
	case logical.LeftJoin, logical.FullJoin:
		var keep []int32
		for i, v := range visited {
			if !v {
				keep = append(keep, int32(i))
			}
		}
		if len(keep) == 0 {
			return nil
		}
		lcols := make([]arrow.Array, left.NumCols())
		for c := range lcols {
			lcols[c] = compute.Take(left.Column(c), keep)
		}
		rs := e.Right.Schema()
		rcols := make([]arrow.Array, rs.NumFields())
		for c := 0; c < rs.NumFields(); c++ {
			b := arrow.NewBuilder(rs.Field(c).Type)
			for range keep {
				b.AppendNull()
			}
			rcols[c] = b.Finish()
		}
		return arrow.NewRecordBatchWithRows(e.schema, append(lcols, rcols...), len(keep))
	case logical.LeftSemiJoin, logical.LeftAntiJoin:
		want := e.Type == logical.LeftSemiJoin
		var keep []int32
		for i, v := range visited {
			if v == want {
				keep = append(keep, int32(i))
			}
		}
		if len(keep) == 0 {
			return nil
		}
		return compute.TakeBatch(left, keep)
	}
	return nil
}

func combinedBatch(schema *arrow.Schema, left, rb *arrow.RecordBatch, li, ri []int32) *arrow.RecordBatch {
	lcols := make([]arrow.Array, left.NumCols())
	for c := 0; c < left.NumCols(); c++ {
		lcols[c] = compute.Take(left.Column(c), li)
	}
	rcols := make([]arrow.Array, rb.NumCols())
	for c := 0; c < rb.NumCols(); c++ {
		rcols[c] = compute.Take(rb.Column(c), ri)
	}
	return arrow.NewRecordBatchWithRows(schema, append(lcols, rcols...), len(li))
}
