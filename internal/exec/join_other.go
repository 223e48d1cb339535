package exec

import (
	"gofusion/internal/arrow"
	"gofusion/internal/logical"
	"gofusion/internal/physical"
)

// NestedLoopJoinExec evaluates an arbitrary join condition (paper Section
// 6.4) on the build and probe of joinCore: every build row is a candidate
// of every probe row, and the residual filter decides. It handles the
// non-equi joins the hash join cannot; a cross join is an inner join
// without a filter. The build is shared by every probe partition.
type NestedLoopJoinExec struct {
	joinCore
}

// NewNestedLoopJoinExec computes the output schema.
func NewNestedLoopJoinExec(left, right physical.ExecutionPlan, filter *JoinFilter, jt logical.JoinType) *NestedLoopJoinExec {
	if jt == logical.CrossJoin {
		jt = logical.InnerJoin
	}
	e := &NestedLoopJoinExec{}
	e.init(e, "NestedLoopJoinExec", left, right, nil, filter, jt, nil, nil)
	return e
}

func (e *NestedLoopJoinExec) with(left, right physical.ExecutionPlan, cols []int, schema *arrow.Schema) joinOp {
	j := &NestedLoopJoinExec{}
	j.init(j, e.name, left, right, nil, e.Filter, e.Type, cols, schema)
	return j
}

// index chains every build row to the next one; every probe row's chain
// starts at the first.
func (e *NestedLoopJoinExec) index(bt *builtTable) (func(int) lookupFn, error) {
	n := bt.batch.NumRows()
	if err := bt.res.Grow(4 * int64(n)); err != nil {
		return nil, err
	}
	bt.next = make([]int32, n)
	for i := range bt.next {
		bt.next[i] = int32(i + 1)
	}
	head := int32(-1)
	if n > 0 {
		bt.next[n-1], head = -1, 0
	}
	everyRow := func(_ *arrow.RecordBatch, first []int32) error {
		for i := range first {
			first[i] = head
		}
		return nil
	}
	return func(int) lookupFn { return everyRow }, nil
}
