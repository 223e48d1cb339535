package physical

import (
	"gofusion/internal/arrow"
)

// EmitFn receives one output batch from a push-mode operator. Operators
// call it zero or more times per Push/Flush; the driver buffers emitted
// batches and feeds them to the next stage after the call returns, so
// implementations never re-enter downstream operators.
type EmitFn func(*arrow.RecordBatch) error

// Pusher is the one implementation of a streaming operator and of an
// aggregation: a driver loop pulls a batch from the source stream and
// pushes it through one Pusher — the operator running alone — or through a
// whole chain of them — a fused segment (PAPERS.md: "Push vs. Pull-Based
// Loop Fusion in Query Engines": a pull stream is a push operator plus a
// driver). A pipeline breaker that is a Pusher absorbs its input in Push
// and emits at Flush. A Pusher serves one partition and is not safe for
// concurrent use.
type Pusher interface {
	// Push consumes one input batch, emitting any output via emit. A true
	// done return means the operator will never emit again (e.g. a limit
	// was satisfied); the driver then stops feeding the pipeline.
	Push(b *arrow.RecordBatch, emit EmitFn) (done bool, err error)
	// Flush emits any buffered state after the input is exhausted
	// (aggregation results).
	Flush(emit EmitFn) error
	// Close releases resources (memory reservations). It must be safe to
	// call after Flush and when the pipeline is abandoned before Flush.
	Close()
}

// Pushable marks an operator that compiles itself into a Pusher, which
// both its own Execute and a fused pipeline segment drive: filters,
// projections, limits, every aggregation and the probe of the hash, merge
// and nested-loop joins, which is pushed batches of the join's right input
// and builds from its left one in PushInto.
// Exchanges (goroutine boundaries), sorts and windows (they emit as many
// rows as they read, which Flush would hand over in one call), top-k and
// the symmetric join (it reads both inputs in step) still pull and do not
// implement it.
type Pushable interface {
	ExecutionPlan
	// CanPush reports whether this node runs as a Pusher as configured
	// (e.g. a global limit only over a single partition).
	CanPush() bool
	// PushInto compiles the operator for one partition of a driver loop.
	PushInto(ctx *ExecContext, partition int) (Pusher, error)
}
