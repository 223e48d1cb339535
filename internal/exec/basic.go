package exec

import (
	"fmt"
	"io"
	"strings"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/physical"
)

// FilterExec keeps rows satisfying the predicate.
type FilterExec struct {
	physical.OpMetrics
	Input     physical.ExecutionPlan
	Predicate physical.PhysicalExpr
}

func (e *FilterExec) Schema() *arrow.Schema                { return e.Input.Schema() }
func (e *FilterExec) Children() []physical.ExecutionPlan   { return []physical.ExecutionPlan{e.Input} }
func (e *FilterExec) Partitions() int                      { return e.Input.Partitions() }
func (e *FilterExec) OutputOrdering() []physical.SortField { return e.Input.OutputOrdering() }
func (e *FilterExec) String() string                       { return "FilterExec: " + e.Predicate.String() }
func (e *FilterExec) WithChildren(ch []physical.ExecutionPlan) (physical.ExecutionPlan, error) {
	c, err := oneChild(ch)
	if err != nil {
		return nil, err
	}
	return &FilterExec{Input: c, Predicate: e.Predicate}, nil
}

func (e *FilterExec) Execute(ctx *physical.ExecContext, partition int) (physical.Stream, error) {
	return executePushed(ctx, partition, e)
}

// CanPush marks the filter as fusable: one batch in, at most one out.
func (e *FilterExec) CanPush() bool { return true }

// PushInto compiles the filter for a fused loop.
func (e *FilterExec) PushInto(*physical.ExecContext, int) (physical.Pusher, error) {
	return &filterPusher{e: e}, nil
}

// filterPusher evaluates the predicate into scratch: the mask dies once
// FilterBatch has copied the surviving rows out.
type filterPusher struct {
	e       *FilterExec
	scratch physical.Scratch
}

func (p *filterPusher) Push(b *arrow.RecordBatch, emit physical.EmitFn) (bool, error) {
	mask, err := physical.EvalPredicate(p.e.Predicate, b, &p.scratch)
	if err != nil {
		return false, err
	}
	out, err := compute.FilterBatch(b, mask)
	if err != nil {
		return false, err
	}
	return false, emit(out)
}

func (p *filterPusher) Flush(physical.EmitFn) error { return nil }
func (p *filterPusher) Close()                      {}

// ProjectionExec computes output expressions.
type ProjectionExec struct {
	physical.OpMetrics
	Input  physical.ExecutionPlan
	Exprs  []physical.PhysicalExpr
	schema *arrow.Schema
}

// NewProjectionExec builds a projection with the given output field names.
func NewProjectionExec(input physical.ExecutionPlan, exprs []physical.PhysicalExpr, names []string, nullables []bool) *ProjectionExec {
	fields := make([]arrow.Field, len(exprs))
	for i, e := range exprs {
		nullable := true
		if nullables != nil {
			nullable = nullables[i]
		}
		fields[i] = arrow.NewField(names[i], e.DataType(), nullable)
	}
	return &ProjectionExec{Input: input, Exprs: exprs, schema: arrow.NewSchema(fields...)}
}

func (e *ProjectionExec) Schema() *arrow.Schema { return e.schema }
func (e *ProjectionExec) Children() []physical.ExecutionPlan {
	return []physical.ExecutionPlan{e.Input}
}
func (e *ProjectionExec) Partitions() int { return e.Input.Partitions() }
func (e *ProjectionExec) String() string {
	parts := make([]string, len(e.Exprs))
	for i, x := range e.Exprs {
		parts[i] = x.String()
	}
	return "ProjectionExec: " + strings.Join(parts, ", ")
}

// OutputOrdering propagates input ordering through column-only projections.
func (e *ProjectionExec) OutputOrdering() []physical.SortField {
	in := e.Input.OutputOrdering()
	if in == nil {
		return nil
	}
	// Map input column -> output position when projected as a bare column.
	colMap := map[int]int{}
	for i, x := range e.Exprs {
		if c, ok := x.(*physical.ColumnExpr); ok {
			if _, dup := colMap[c.Index]; !dup {
				colMap[c.Index] = i
			}
		}
	}
	var out []physical.SortField
	for _, f := range in {
		oi, ok := colMap[f.Col]
		if !ok {
			break // ordering prefix only survives while columns survive
		}
		out = append(out, physical.SortField{Col: oi, Descending: f.Descending, NullsFirst: f.NullsFirst})
	}
	return out
}

func (e *ProjectionExec) WithChildren(ch []physical.ExecutionPlan) (physical.ExecutionPlan, error) {
	c, err := oneChild(ch)
	if err != nil {
		return nil, err
	}
	return &ProjectionExec{Input: c, Exprs: e.Exprs, schema: e.schema}, nil
}

func (e *ProjectionExec) Execute(ctx *physical.ExecContext, partition int) (physical.Stream, error) {
	return executePushed(ctx, partition, e)
}

// CanPush marks the projection as fusable.
func (e *ProjectionExec) CanPush() bool { return true }

// PushInto compiles the projection for a fused loop.
func (e *ProjectionExec) PushInto(*physical.ExecContext, int) (physical.Pusher, error) {
	return &projectionPusher{e: e}, nil
}

type projectionPusher struct{ e *ProjectionExec }

func (p *projectionPusher) Push(b *arrow.RecordBatch, emit physical.EmitFn) (bool, error) {
	cols := make([]arrow.Array, len(p.e.Exprs))
	for i, x := range p.e.Exprs {
		a, err := physical.EvalToArray(x, b, nil)
		if err != nil {
			return false, err
		}
		cols[i] = a
	}
	return false, emit(arrow.NewRecordBatchWithRows(p.e.schema, cols, b.NumRows()))
}

func (p *projectionPusher) Flush(physical.EmitFn) error { return nil }
func (p *projectionPusher) Close()                      {}

// GlobalLimitExec applies skip/fetch over a single partition.
type GlobalLimitExec struct {
	physical.OpMetrics
	Input physical.ExecutionPlan
	Skip  int64
	Fetch int64 // -1 = unlimited
}

func (e *GlobalLimitExec) Schema() *arrow.Schema { return e.Input.Schema() }
func (e *GlobalLimitExec) Children() []physical.ExecutionPlan {
	return []physical.ExecutionPlan{e.Input}
}
func (e *GlobalLimitExec) Partitions() int { return 1 }
func (e *GlobalLimitExec) OutputOrdering() []physical.SortField {
	return e.Input.OutputOrdering()
}
func (e *GlobalLimitExec) String() string {
	return fmt.Sprintf("GlobalLimitExec: skip=%d fetch=%d", e.Skip, e.Fetch)
}
func (e *GlobalLimitExec) WithChildren(ch []physical.ExecutionPlan) (physical.ExecutionPlan, error) {
	c, err := oneChild(ch)
	if err != nil {
		return nil, err
	}
	return &GlobalLimitExec{Input: c, Skip: e.Skip, Fetch: e.Fetch}, nil
}

func (e *GlobalLimitExec) Execute(ctx *physical.ExecContext, partition int) (physical.Stream, error) {
	if partition != 0 {
		return nil, fmt.Errorf("exec: limit has a single partition")
	}
	if e.Input.Partitions() != 1 {
		return nil, fmt.Errorf("exec: GlobalLimitExec requires single-partition input (planner bug)")
	}
	return executePushed(ctx, 0, e)
}

// CanPush allows fusing the global limit only over single-partition
// input, mirroring the Execute-time invariant.
func (e *GlobalLimitExec) CanPush() bool { return e.Input.Partitions() == 1 }

// PushInto compiles the skip/fetch window for a fused loop; done fires
// once the fetch is satisfied so the driver stops the source early.
func (e *GlobalLimitExec) PushInto(*physical.ExecContext, int) (physical.Pusher, error) {
	return &globalLimitPusher{skip: e.Skip, remaining: e.Fetch}, nil
}

type globalLimitPusher struct {
	skip      int64
	remaining int64 // -1 = unlimited
}

func (p *globalLimitPusher) Push(b *arrow.RecordBatch, emit physical.EmitFn) (bool, error) {
	if p.remaining == 0 {
		return true, nil
	}
	if p.skip > 0 {
		if int64(b.NumRows()) <= p.skip {
			p.skip -= int64(b.NumRows())
			return false, nil
		}
		b = b.Slice(int(p.skip), b.NumRows()-int(p.skip))
		p.skip = 0
	}
	if p.remaining > 0 && int64(b.NumRows()) > p.remaining {
		b = b.Slice(0, int(p.remaining))
	}
	if p.remaining > 0 {
		p.remaining -= int64(b.NumRows())
	}
	if err := emit(b); err != nil {
		return false, err
	}
	return p.remaining == 0, nil
}

func (p *globalLimitPusher) Flush(physical.EmitFn) error { return nil }
func (p *globalLimitPusher) Close()                      {}

// LocalLimitExec truncates each partition independently (a planner aid
// under a global limit).
type LocalLimitExec struct {
	physical.OpMetrics
	Input physical.ExecutionPlan
	Fetch int64
}

func (e *LocalLimitExec) Schema() *arrow.Schema { return e.Input.Schema() }
func (e *LocalLimitExec) Children() []physical.ExecutionPlan {
	return []physical.ExecutionPlan{e.Input}
}
func (e *LocalLimitExec) Partitions() int { return e.Input.Partitions() }
func (e *LocalLimitExec) OutputOrdering() []physical.SortField {
	return e.Input.OutputOrdering()
}
func (e *LocalLimitExec) String() string { return fmt.Sprintf("LocalLimitExec: fetch=%d", e.Fetch) }
func (e *LocalLimitExec) WithChildren(ch []physical.ExecutionPlan) (physical.ExecutionPlan, error) {
	c, err := oneChild(ch)
	if err != nil {
		return nil, err
	}
	return &LocalLimitExec{Input: c, Fetch: e.Fetch}, nil
}

func (e *LocalLimitExec) Execute(ctx *physical.ExecContext, partition int) (physical.Stream, error) {
	return executePushed(ctx, partition, e)
}

// CanPush marks the per-partition limit as fusable.
func (e *LocalLimitExec) CanPush() bool { return true }

// PushInto compiles the per-partition truncation for a fused loop.
func (e *LocalLimitExec) PushInto(*physical.ExecContext, int) (physical.Pusher, error) {
	return &localLimitPusher{remaining: e.Fetch}, nil
}

type localLimitPusher struct{ remaining int64 }

func (p *localLimitPusher) Push(b *arrow.RecordBatch, emit physical.EmitFn) (bool, error) {
	if p.remaining <= 0 {
		return true, nil
	}
	if int64(b.NumRows()) > p.remaining {
		b = b.Slice(0, int(p.remaining))
	}
	p.remaining -= int64(b.NumRows())
	if err := emit(b); err != nil {
		return false, err
	}
	return p.remaining <= 0, nil
}

func (p *localLimitPusher) Flush(physical.EmitFn) error { return nil }
func (p *localLimitPusher) Close()                      {}

// CoalescePartitionsExec merges all input partitions into one stream,
// reading them concurrently.
type CoalescePartitionsExec struct {
	physical.OpMetrics
	Input physical.ExecutionPlan
}

func (e *CoalescePartitionsExec) Schema() *arrow.Schema { return e.Input.Schema() }
func (e *CoalescePartitionsExec) Children() []physical.ExecutionPlan {
	return []physical.ExecutionPlan{e.Input}
}
func (e *CoalescePartitionsExec) Partitions() int                      { return 1 }
func (e *CoalescePartitionsExec) OutputOrdering() []physical.SortField { return nil }
func (e *CoalescePartitionsExec) String() string {
	return fmt.Sprintf("CoalescePartitionsExec: inputs=%d", e.Input.Partitions())
}
func (e *CoalescePartitionsExec) WithChildren(ch []physical.ExecutionPlan) (physical.ExecutionPlan, error) {
	c, err := oneChild(ch)
	if err != nil {
		return nil, err
	}
	return &CoalescePartitionsExec{Input: c}, nil
}

func (e *CoalescePartitionsExec) Execute(ctx *physical.ExecContext, partition int) (physical.Stream, error) {
	if partition != 0 {
		return nil, fmt.Errorf("exec: coalesce has a single partition")
	}
	n := e.Input.Partitions()
	if n == 1 {
		in, err := e.Input.Execute(ctx, 0)
		if err != nil {
			return nil, err
		}
		return physical.InstrumentStream(in, e.Metrics()), nil
	}
	// One slot per producer, so each can park a batch without waiting.
	x := startExchange(ctx, e.Input, 1, n, e.Metrics(), func(x *exchange, _ int) func(*arrow.RecordBatch) error {
		return func(b *arrow.RecordBatch) error {
			x.send(0, batchOrErr{batch: b})
			return nil
		}
	})
	return physical.InstrumentStream(x.stream(ctx, e.Schema(), 0), e.Metrics()), nil
}

// UnionExec concatenates the partitions of several same-schema inputs.
type UnionExec struct {
	physical.OpMetrics
	Inputs []physical.ExecutionPlan
	parts  []int // prefix-sum partition mapping
}

// NewUnionExec builds a union whose partition list is the concatenation of
// the inputs' partitions.
func NewUnionExec(inputs []physical.ExecutionPlan) *UnionExec {
	u := &UnionExec{Inputs: inputs}
	for _, in := range inputs {
		u.parts = append(u.parts, in.Partitions())
	}
	return u
}

func (e *UnionExec) Schema() *arrow.Schema              { return e.Inputs[0].Schema() }
func (e *UnionExec) Children() []physical.ExecutionPlan { return e.Inputs }
func (e *UnionExec) Partitions() int {
	n := 0
	for _, p := range e.parts {
		n += p
	}
	return n
}
func (e *UnionExec) OutputOrdering() []physical.SortField { return nil }
func (e *UnionExec) String() string                       { return fmt.Sprintf("UnionExec: inputs=%d", len(e.Inputs)) }
func (e *UnionExec) WithChildren(ch []physical.ExecutionPlan) (physical.ExecutionPlan, error) {
	return NewUnionExec(ch), nil
}

func (e *UnionExec) Execute(ctx *physical.ExecContext, partition int) (physical.Stream, error) {
	for i, p := range e.parts {
		if partition < p {
			in, err := e.Inputs[i].Execute(ctx, partition)
			if err != nil {
				return nil, err
			}
			return physical.InstrumentStream(in, e.Metrics()), nil
		}
		partition -= p
	}
	return nil, fmt.Errorf("exec: union partition out of range")
}

// ValuesExec produces a fixed set of batches in one partition.
type ValuesExec struct {
	physical.OpMetrics
	schema  *arrow.Schema
	Batches []*arrow.RecordBatch
}

// NewValuesExec wraps literal batches.
func NewValuesExec(schema *arrow.Schema, batches []*arrow.RecordBatch) *ValuesExec {
	return &ValuesExec{schema: schema, Batches: batches}
}

func (e *ValuesExec) Schema() *arrow.Schema                { return e.schema }
func (e *ValuesExec) Children() []physical.ExecutionPlan   { return nil }
func (e *ValuesExec) Partitions() int                      { return 1 }
func (e *ValuesExec) OutputOrdering() []physical.SortField { return nil }
func (e *ValuesExec) String() string                       { return fmt.Sprintf("ValuesExec: %d batches", len(e.Batches)) }
func (e *ValuesExec) WithChildren(ch []physical.ExecutionPlan) (physical.ExecutionPlan, error) {
	return e, nil
}
func (e *ValuesExec) Execute(_ *physical.ExecContext, partition int) (physical.Stream, error) {
	pos := 0
	return physical.InstrumentStream(NewFuncStream(e.schema, func() (*arrow.RecordBatch, error) {
		if pos >= len(e.Batches) {
			return nil, io.EOF
		}
		b := e.Batches[pos]
		pos++
		return b, nil
	}, nil), e.Metrics()), nil
}
