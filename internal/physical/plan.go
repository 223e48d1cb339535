// Package physical defines the execution-side representation: the
// ExecutionPlan interface (paper Section 5.5), PhysicalExpr trees with
// vectorized evaluation, plan properties (partitioning and orderings), and
// the compiler from logical expressions to physical expressions. Operators
// live in the exec package.
package physical

import (
	"context"
	"sync"

	"gofusion/internal/arrow"
	"gofusion/internal/catalog"
	"gofusion/internal/memory"
)

// Stream is the engine-wide incremental batch iterator.
type Stream = catalog.Stream

// ExecContext carries per-query runtime state into operator execution.
type ExecContext struct {
	// Ctx cancels the query.
	Ctx context.Context
	// BatchRows is the target output batch size.
	BatchRows int
	// ExchangeBuffer is the per-output-channel batch buffer depth of
	// exchange operators (RepartitionExec); 0 derives a default from
	// TargetPartitions. Deeper buffers keep fast producers from stalling
	// on slow consumers at the cost of more in-flight batches.
	ExchangeBuffer int
	// TargetPartitions is the session parallelism, used to size derived
	// defaults (exchange buffers, morsel granularity); 0 means 1.
	TargetPartitions int
	// Pool arbitrates operator memory.
	Pool memory.Pool
	// Disk provides spill files; nil disables spilling.
	Disk *memory.DiskManager

	// workers are the goroutines the query's operators started (exchange
	// producers); Wait joins them.
	workers sync.WaitGroup
}

// Go runs f on a goroutine of the query, one that Wait joins.
func (c *ExecContext) Go(f func()) {
	c.workers.Add(1)
	go func() {
		defer c.workers.Done()
		f()
	}()
}

// Wait blocks until every goroutine started by Go has returned. A query's
// cleanup cancels Ctx first, so that no worker waits on a consumer that has
// gone, and waits before it releases what the workers may still hold
// (spill files, reservations).
func (c *ExecContext) Wait() { c.workers.Wait() }

// DefaultExchangeBuffer is the minimum exchange channel depth used when
// ExecContext.ExchangeBuffer is unset.
const DefaultExchangeBuffer = 4

// ExchangeBufferDepth returns the effective exchange channel depth. When
// ExchangeBuffer is unset it derives from TargetPartitions: consumers run
// a whole operator chain per batch they take, so at high parallelism a
// fixed shallow buffer stalls producers that all hash into one hot output.
func (c *ExecContext) ExchangeBufferDepth() int {
	if c.ExchangeBuffer > 0 {
		return c.ExchangeBuffer
	}
	if c.TargetPartitions > DefaultExchangeBuffer {
		return c.TargetPartitions
	}
	return DefaultExchangeBuffer
}

// NewExecContext returns a context with unbounded memory and no spilling.
func NewExecContext() *ExecContext {
	return &ExecContext{Ctx: context.Background(), BatchRows: 8192,
		Pool: memory.NewUnboundedPool()}
}

// SortField names one column of a physical ordering.
type SortField struct {
	Col        int
	Descending bool
	NullsFirst bool
}

// ExecutionPlan is a physical operator. Each plan has a partitioning: the
// planner chooses a partition count, and Execute is called once per
// partition, each returning an independent Stream that runs on its own
// goroutine (paper Figure 4).
type ExecutionPlan interface {
	// Schema returns the output schema.
	Schema() *arrow.Schema
	// Children returns input plans.
	Children() []ExecutionPlan
	// WithChildren rebuilds the node with new inputs.
	WithChildren(children []ExecutionPlan) (ExecutionPlan, error)
	// Partitions returns the output partition count.
	Partitions() int
	// Execute opens output partition p.
	Execute(ctx *ExecContext, partition int) (Stream, error)
	// OutputOrdering describes the per-partition sort order of the
	// output, or nil when unordered.
	OutputOrdering() []SortField
	// String renders a one-line description for EXPLAIN.
	String() string
}

// PhysicalExpr evaluates to a column (or broadcast scalar) against record
// batches whose layout is fixed at plan time.
type PhysicalExpr interface {
	// DataType returns the result type.
	DataType() *arrow.DataType
	// Evaluate computes the expression over a batch. A nil Scratch
	// allocates every result; a non-nil one lends its nodes reusable
	// result storage, so what Evaluate returns is valid only until the next
	// evaluation with that Scratch (see Scratch).
	Evaluate(batch *arrow.RecordBatch, s *Scratch) (arrow.Datum, error)
	// String renders the expression for EXPLAIN.
	String() string
}

// EvalToArray evaluates an expression with s (nil allocates) and
// materializes the result as an array of the batch's row count.
func EvalToArray(e PhysicalExpr, batch *arrow.RecordBatch, s *Scratch) (arrow.Array, error) {
	d, err := e.Evaluate(batch, s)
	if err != nil {
		return nil, err
	}
	return d.ToArray(batch.NumRows()), nil
}

// EvalPredicate evaluates a boolean expression with s (nil allocates) into
// a filter mask, mapping NULL to false per SQL WHERE semantics.
func EvalPredicate(e PhysicalExpr, batch *arrow.RecordBatch, s *Scratch) (*arrow.BoolArray, error) {
	arr, err := EvalToArray(e, batch, s)
	if err != nil {
		return nil, err
	}
	mask, ok := arr.(*arrow.BoolArray)
	if !ok {
		if _, isNull := arr.(*arrow.NullArray); isNull {
			n := batch.NumRows()
			return arrow.NewBool(arrow.NewBitmap(n), nil, n), nil
		}
		return nil, errNotBoolean(arr.DataType())
	}
	return mask, nil
}
