package exec

import (
	"fmt"
	"io"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/logical"
	"gofusion/internal/physical"
)

// SymmetricHashJoinExec is a streaming (pipelined) inner equi-join: both
// sides build hash tables incrementally and probe the other side's table
// as batches arrive, so results stream without waiting for either input
// to finish (paper Section 6.4, used by streaming SQL systems built on
// the engine).
type SymmetricHashJoinExec struct {
	physical.OpMetrics
	Left   physical.ExecutionPlan
	Right  physical.ExecutionPlan
	On     []JoinOn
	schema *arrow.Schema
}

// NewSymmetricHashJoinExec builds a streaming inner join.
func NewSymmetricHashJoinExec(left, right physical.ExecutionPlan, on []JoinOn) *SymmetricHashJoinExec {
	return &SymmetricHashJoinExec{Left: left, Right: right, On: on,
		schema: joinOutputSchema(left.Schema(), right.Schema(), logical.InnerJoin)}
}

func (e *SymmetricHashJoinExec) Schema() *arrow.Schema { return e.schema }
func (e *SymmetricHashJoinExec) Children() []physical.ExecutionPlan {
	return []physical.ExecutionPlan{e.Left, e.Right}
}
func (e *SymmetricHashJoinExec) Partitions() int                      { return 1 }
func (e *SymmetricHashJoinExec) OutputOrdering() []physical.SortField { return nil }
func (e *SymmetricHashJoinExec) String() string {
	return fmt.Sprintf("SymmetricHashJoinExec: on=%d keys", len(e.On))
}
func (e *SymmetricHashJoinExec) WithChildren(ch []physical.ExecutionPlan) (physical.ExecutionPlan, error) {
	if len(ch) != 2 {
		return nil, fmt.Errorf("exec: join takes 2 children")
	}
	return NewSymmetricHashJoinExec(ch[0], ch[1], e.On), nil
}

// sideState is one input's accumulated rows and key index.
type sideState struct {
	stream  physical.Stream
	exprs   []physical.PhysicalExpr
	batches []*arrow.RecordBatch
	// index maps key -> (batchIdx, rowIdx) pairs, flattened.
	index map[string][][2]int32
	done  bool
}

func newSideState(s physical.Stream, exprs []physical.PhysicalExpr) *sideState {
	return &sideState{stream: s, exprs: exprs, index: map[string][][2]int32{}}
}

// ingest adds one batch and returns its per-row keys.
func (ss *sideState) ingest(b *arrow.RecordBatch) ([][]byte, error) {
	keys, err := encodeJoinKeys(ss.exprs, b)
	if err != nil {
		return nil, err
	}
	bi := int32(len(ss.batches))
	ss.batches = append(ss.batches, b)
	for i, k := range keys {
		if k == nil {
			continue
		}
		ss.index[string(k)] = append(ss.index[string(k)], [2]int32{bi, int32(i)})
	}
	return keys, nil
}

func (e *SymmetricHashJoinExec) Execute(ctx *physical.ExecContext, partition int) (physical.Stream, error) {
	if partition != 0 {
		return nil, fmt.Errorf("exec: symmetric hash join has a single partition")
	}
	ls, err := (&CoalescePartitionsExec{Input: e.Left}).Execute(ctx, 0)
	if err != nil {
		return nil, err
	}
	rs, err := (&CoalescePartitionsExec{Input: e.Right}).Execute(ctx, 0)
	if err != nil {
		ls.Close()
		return nil, err
	}
	lex, rex := joinKeyExprs(e.On)
	left, right := newSideState(ls, lex), newSideState(rs, rex)

	m := e.Metrics()
	buildRows := m.Counter("build_rows") // rows ingested on the left side
	probeRows := m.Counter("probe_rows") // rows ingested on the right side
	turn := 0
	next := func() (*arrow.RecordBatch, error) {
		for {
			if left.done && right.done {
				return nil, io.EOF
			}
			if err := checkCancel(ctx); err != nil {
				return nil, err
			}
			// Alternate sides for pipelined progress.
			var src, other *sideState
			fromLeft := turn%2 == 0
			if (fromLeft && left.done) || (!fromLeft && !right.done && len(left.batches) > len(right.batches)*2) {
				fromLeft = false
			}
			if !fromLeft && right.done {
				fromLeft = true
			}
			if fromLeft {
				src, other = left, right
			} else {
				src, other = right, left
			}
			turn++
			b, err := src.stream.Next()
			if err == io.EOF {
				src.done = true
				continue
			}
			if err != nil {
				return nil, err
			}
			if b.NumRows() == 0 {
				continue
			}
			keys, err := src.ingest(b)
			if err != nil {
				return nil, err
			}
			if fromLeft {
				buildRows.Add(int64(b.NumRows()))
			} else {
				probeRows.Add(int64(b.NumRows()))
			}
			// Probe the other side's accumulated rows.
			var srcIdx []int32
			var otherRefs [][2]int32
			for i, k := range keys {
				if k == nil {
					continue
				}
				for _, ref := range other.index[string(k)] {
					srcIdx = append(srcIdx, int32(i))
					otherRefs = append(otherRefs, ref)
				}
			}
			if len(srcIdx) == 0 {
				continue
			}
			out, err := e.materialize(fromLeft, b, srcIdx, other, otherRefs)
			if err != nil {
				return nil, err
			}
			if out.NumRows() > 0 {
				return out, nil
			}
		}
	}
	closeAll := func() {
		ls.Close()
		rs.Close()
	}
	return physical.InstrumentStream(NewFuncStream(e.schema, next, closeAll), m), nil
}

func (e *SymmetricHashJoinExec) materialize(srcIsLeft bool, src *arrow.RecordBatch, srcIdx []int32,
	other *sideState, refs [][2]int32) (*arrow.RecordBatch, error) {
	srcCols := make([]arrow.Array, src.NumCols())
	for c := range srcCols {
		srcCols[c] = compute.Take(src.Column(c), srcIdx)
	}
	otherSchema := other.batches[0].Schema()
	otherCols := make([]arrow.Array, otherSchema.NumFields())
	for c := range otherCols {
		b := arrow.NewBuilder(otherSchema.Field(c).Type)
		for _, ref := range refs {
			b.AppendFrom(other.batches[ref[0]].Column(c), int(ref[1]))
		}
		otherCols[c] = b.Finish()
	}
	var cols []arrow.Array
	if srcIsLeft {
		cols = append(srcCols, otherCols...)
	} else {
		cols = append(otherCols, srcCols...)
	}
	return arrow.NewRecordBatchWithRows(e.schema, cols, len(srcIdx)), nil
}
